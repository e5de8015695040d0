(** Decode telemetry tallies: the snapshot/delta substrate of per-query
    cost attribution ([Wet_qprof]).

    The step counters inside a bidirectional stream ({!Bidir.telemetry})
    answer "what happened to this stream state"; a query profiler needs
    the dual — "how much decode work happened in this window of time,
    across every stream". A {!tally} is a bundle of counters bumped by
    the very same internal steps that feed the {!Bidir} ones, so the
    two views stay in lockstep: peeks are pure reads and a rewind
    from the template copies without decoding, so neither steps;
    [Bidir.compress] builds a stream without stepping; and raw-stream
    seeks/random reads stay free in both.

    {!default} is the process tally that cursor steps taken without a
    [?tally] count against. Sessions ([Wet.Session]) each own a private
    tally, so decode work attributes to the session that performed it
    without cross-domain races.

    A tally is monotone for the life of its owner, and never marshalled.
    Consumers only ever look at the difference between two {!snapshot}s,
    which makes deltas of disjoint windows sum exactly to the delta of
    their union — the reconciliation property [test_qprof] checks. *)

type snapshot = {
  g_fwd : int;  (** forward cursor steps *)
  g_bwd : int;  (** backward cursor steps *)
  g_switches : int;  (** traversal direction reversals (per stream) *)
  g_hits : int;  (** dictionary-hit entries decoded (packed only) *)
  g_misses : int;  (** verbatim entries decoded (packed only) *)
  g_bits : int;
      (** stored bits touched: flag + payload per packed entry, 32 per
          raw value *)
}

val zero : snapshot

(** A mutable counter bundle. Single-owner: one session accounts
    against one tally; sharing a
    tally across domains races benignly (lost increments) but never
    corrupts memory. *)
type tally

(** A fresh tally, all counters zero. *)
val make : unit -> tally

(** The process-wide tally used whenever no explicit tally is passed. *)
val default : tally

(** Current value of a tally's counters ({!default} if omitted). O(1),
    allocates one record. *)
val snapshot : ?tally:tally -> unit -> snapshot

(** Field-wise [after - before]: the decode work between two moments. *)
val delta : before:snapshot -> after:snapshot -> snapshot

(** Field-wise sum (for aggregating deltas). *)
val add : snapshot -> snapshot -> snapshot

(** [g_fwd + g_bwd]. *)
val steps : snapshot -> int

(** All fields non-negative (true for any well-formed delta). *)
val nonneg : snapshot -> bool

(** Set a tally's counters back to a snapshot. Not for general use. *)
val restore : ?tally:tally -> snapshot -> unit

(**/**)

(* Recording entry points for Bidir/Stream internal steps. *)

val note_packed :
  ?tally:tally ->
  fwd:bool -> switched:bool -> hit:bool -> payload_bits:int -> unit -> unit

val note_raw : ?tally:tally -> fwd:bool -> switched:bool -> unit -> unit
