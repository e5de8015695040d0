(** Names for the cost ledger's rows, and the log of query entry points.

    Every cursor counts its own steps, once, in its session's
    {!Wet_bistream.Telemetry} tally, under a row named by {!label}.
    This module names those rows ({!stream}, {!stream_stats}) so a
    profile can list which label streams a query walked, in which
    directions, and how many decode steps each cost — the observable
    cost model behind the paper's tier-1 vs tier-2 query timing tables.
    [Wet_qprof] opens the windows that read the rows, and [--analyze]
    prints them.

    A {!recorder} keeps only what the ledger cannot: the names of the
    query entry points hit while it is armed. Each [Wet.Session] owns
    one (single-owner, like the session itself); the outermost qprof
    context arms it. *)

(** Identity of a WET label stream. *)
type stream =
  | Ts of int  (** timestamp sequence of a node *)
  | Uvals of int  (** unique-value sequence of a copy *)
  | Pattern of int * int  (** shared value pattern of (node, group) *)
  | Label_src of int  (** producer side of edge-label [l_id] *)
  | Label_dst of int  (** consumer side of edge-label [l_id] *)

(** The ledger row name of a stream, for [Stream.Cursor.make ~label].
    Ids must be non-negative and a pattern's group below [2^24];
    [Invalid_argument] otherwise. *)
val label : stream -> int

(** Inverse of {!label}. *)
val stream_of_label : int -> stream

(** The entry-point names noted while armed. Not thread-safe —
    single-owner. *)
type recorder

(** A fresh, disarmed recorder. *)
val make_recorder : unit -> recorder

(** Is this recorder currently armed? *)
val recording : recorder -> bool

(** Clear the names noted and start noting. *)
val arm : recorder:recorder -> unit

(** Stop noting; the names noted stay until the next {!arm}. *)
val disarm : recorder:recorder -> unit

(** Note a query entry point (e.g. ["query.control_flow"]); a no-op
    while disarmed. *)
val query : recorder:recorder -> string -> unit

(** Entry points noted since the last {!arm}. O(1). *)
val query_count : recorder:recorder -> int

(** The entry points noted after the first [n], oldest first. *)
val queries_since : recorder:recorder -> int -> string list

(** One ledger row, named: the work on one stream within a window. *)
type stream_stats = {
  e_stream : stream;
  e_fwd : int;  (** forward steps *)
  e_bwd : int;  (** backward steps *)
  e_switches : int;  (** steps that reversed the cursor's direction *)
  e_seeks : int;  (** repositioning calls *)
  e_seek_steps : int;  (** steps taken inside them *)
  e_hits : int;  (** dictionary hits decoded *)
  e_misses : int;  (** verbatim entries decoded *)
  e_bits : int;  (** stored bits touched *)
}

(** Ledger rows as named stats, sorted by stream (stably: cursors of
    several sessions sharing a tally keep a row each). *)
val stats_of_rows : Wet_bistream.Telemetry.row list -> stream_stats list

(** The class of a stream: ["ts"], ["uvals"], ["pattern"], ["label.src"]
    or ["label.dst"]. *)
val stream_kind : stream -> string

val stream_name : stream -> string

(** Steps paid on one stream: forward + backward. *)
val steps : stream_stats -> int
