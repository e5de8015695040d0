(** Query-explain: which compressed streams a query touched, and how.

    Explain is a view over the cost ledger ({!Wet_bistream.Telemetry}):
    every cursor counts its own steps, once, in its session's tally, and
    a report lists the rows of the streams touched while the recorder
    was armed. The report shows which label streams a query walked, in
    which directions, and how many decode steps it paid — the
    observable cost model behind the paper's tier-1 vs tier-2 query
    timing tables. Its steps are the ledger's steps, so its total is
    the [decode steps] figure of [--analyze] and its Fwd/Bwd are
    qprof's.

    A {!recorder} keeps only what the ledger cannot: the armed window
    and the entry-point names. Each [Wet.Session] owns one, bound to its
    tally (single-owner, like the session itself); the CLI's [--explain]
    reports its command's session recorder. *)

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

(** The armed window and the entry-point names of one explain
    recording. Not thread-safe — single-owner. *)
type recorder

(** A fresh, disarmed recorder, bound to a tally of its own until
    {!bind} gives it the one its session counts in. *)
val make_recorder : unit -> recorder

(** [bind ?tally ?recorder ()] pairs a tally with a recorder that reads
    it: the [recorder] given (default: a fresh one), made to read
    [tally] if one is given (a recording in progress ends first, as
    {!disarm} ends it), and the tally it then reads. [Wet.open_session]
    and [Qprof.make_scope] pair what they are given this way. *)
val bind :
  ?tally:Wet_bistream.Telemetry.tally ->
  ?recorder:recorder ->
  unit ->
  Wet_bistream.Telemetry.tally * recorder

(** Is this recorder currently armed? *)
val recording : recorder -> bool

(** Clear what was recorded and start recording: open a window on the
    ledger. *)
val arm : recorder:recorder -> unit

(** Stop recording; what was recorded stays until the next {!arm} or
    {!reset}. *)
val disarm : recorder:recorder -> unit

(** Clear what was recorded, armed or not. *)
val reset : recorder:recorder -> unit

(** Note a query entry point (e.g. ["query.control_flow"]); a no-op
    while disarmed. *)
val query : recorder:recorder -> string -> unit

(** Entry points noted so far in this recording. *)
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

type report = { r_queries : string list; r_streams : stream_stats list }

(** Ledger rows as named stats, sorted by stream (stably: cursors of
    several sessions sharing a tally keep a row each). *)
val stats_of_rows : Wet_bistream.Telemetry.row list -> stream_stats list

(** What was recorded: while armed, the window so far; after {!disarm},
    the window it closed. Costs O(streams touched in the window). *)
val report : recorder:recorder -> report

(** {!report}, with the rows also folded into the [wet_obs]
    instruments [explain.fwd_steps], [explain.bwd_steps],
    [explain.dir_switches], [explain.seeks] and [explain.seek_steps] —
    no-ops while the sink is disabled. Over the same window, each
    equals the [qprof.*] counter of the same suffix. *)
val publish : recorder:recorder -> report

val stream_kind : stream -> string
val stream_name : stream -> string

(** Steps paid on one stream: forward + backward. *)
val steps : stream_stats -> int

(** Steps in the whole report: the ledger's decode steps. *)
val total_steps : report -> int

(** Aggregated per {!stream_kind}:
    [(kind, (streams, fwd, bwd, seeks, switches))], sorted. *)
val by_kind : report -> (string * (int * int * int * int * int)) list
