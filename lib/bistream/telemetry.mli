(** The cost ledger: every cursor step a query pays, counted once.

    A {!tally} is the ledger of one reader (a [Wet.Session], or a
    connection's sessions). Each {!Stream.Cursor} made against it owns
    a {!row}; the call that moves the cursor counts each step once,
    into its row and into the tally's totals, following the counting
    rule of DESIGN.md ("The cost ledger"). Every observer is a view: a
    qprof context brackets the totals with two {!snapshot}s and reads
    the rows touched inside a {!window}, and [--analyze], the qlog and
    the [qprof.*] instruments print what it read. A tally is monotone
    for the life of its owner and never marshalled, so deltas of
    disjoint windows sum exactly to the delta of their union. *)

type snapshot = {
  g_fwd : int;  (** forward steps *)
  g_bwd : int;  (** backward steps *)
  g_switches : int;  (** steps that reversed their cursor's direction *)
  g_hits : int;  (** dictionary hits decoded (packed streams only) *)
  g_misses : int;  (** verbatim entries decoded (packed streams only) *)
  g_bits : int;
      (** stored bits touched: flag + payload per packed step, 32 per
          raw step *)
  g_seeks : int;  (** repositioning calls *)
  g_seek_steps : int;  (** steps taken inside those calls *)
}

(** One reader's ledger. Single-owner: sharing a tally across domains
    races benignly (lost increments) but never corrupts memory. *)
type tally

(** A fresh tally, all counters zero. *)
val make : unit -> tally

(** The tally's totals now. O(1), allocates one record. *)
val snapshot : tally:tally -> unit -> snapshot

(** Field-wise [after - before]: the work between two moments. *)
val delta : before:snapshot -> after:snapshot -> snapshot

(** [g_fwd + g_bwd]. *)
val steps : snapshot -> int

(** {1 Rows} *)

(** One cursor's counts, named by the [label] its cursor was made with
    (see [Wet_watch.Explain.label]); read-only outside this module. *)
type row = private {
  r_label : int;
  mutable r_fwd : int;
  mutable r_bwd : int;
  mutable r_switches : int;
  mutable r_hits : int;
  mutable r_misses : int;
  mutable r_bits : int;
  mutable r_seeks : int;
  mutable r_seek_steps : int;
  mutable r_last : int;  (** 0 no step yet, 1 forward, 2 backward *)
  mutable r_gen : int;  (** window generation this row last entered *)
}

(** A row with every count zero. *)
val row : label:int -> row

(** {2 Counting} — for the cursor that moves, and nothing else. *)

(** One raw step: 32 bits, no dictionary. *)
val raw_step : tally -> row -> fwd:bool -> unit

(** One packed step: the flag bit plus [payload_bits], a dictionary
    miss if the payload is the 32-bit value and a hit otherwise. *)
val packed_step : tally -> row -> fwd:bool -> payload_bits:int -> unit

(** One repositioning call that took [steps] of the steps counted
    alongside it. *)
val seek : tally -> row -> steps:int -> unit

(** A raw [read_at]: a seek that took no step, then the forward step
    revealing the value. *)
val raw_read : tally -> row -> unit

(** {1 Windows} *)

(** An open interval of a tally's history. Reading its rows costs
    O(rows touched since it opened), however long the tally has lived:
    a row's counts are kept as it stood when it was first touched inside
    each open window, and the tally keeps those only while some window
    is open. *)
type window

val open_window : tally -> window

(** The rows touched since [w] opened, each holding what was counted on
    it since then, in first-touch order. *)
val window_rows : window -> row list

(** Stop keeping history for [w]. Idempotent. *)
val close_window : window -> unit
