(** Tier-2 compressed streams with per-stream method selection.

    Following the paper's "Selection" paragraph (§5), each stream is
    trial-compressed with every bidirectional method — FCM, differential
    FCM, last-n and last-n-stride, each at three context sizes — over a
    bounded prefix (the first 4096 values), and the smallest result
    wins; ties go to the earliest in {!candidates} order. A raw
    (uncompressed) representation competes too and wins every tie, so
    compression never loses more than the trial cost; streams under 16
    values stay raw outright.

    A trial is {!Bidir.trial}: it counts the bits the candidate would
    take without building its stream, and stops as soon as the count
    shows the candidate cannot beat the best so far. The trials run
    cheapest predictor first, so that bound is tight before the costly
    FCM trials start; since each trial still decides exactly whether
    it beats the leader, the pick is the one an exhaustive scan in
    {!candidates} order would make. Only the winner is built.

    {1 Container vs. cursor}

    A stream value is an immutable compressed {e body} — packed bodies
    are pristine templates parked at the left end, never stepped after
    construction, so marshalling is byte-deterministic regardless of
    query history. All traversal state (position, the bidirectional
    window/table state, the ledger row) lives in {!Cursor.t} handles. A
    body may be read through any number of concurrent cursors; each
    cursor is single-owner. *)

type t

(** All candidate (method, context) pairs, in trial order. *)
val candidates : (Bidir.meth * int) list

(** [compress values] picks the best method for this stream and builds
    the compressed representation. *)
val compress : int array -> t

(** Force a specific representation (for ablations and tests). *)
val compress_with : [ `Raw | `Bidir of Bidir.meth * int ] -> int array -> t

val length : t -> int

(** Analytic compressed size in bits (32 bits per value when raw). *)
val bits : t -> int

(** Human-readable method name, e.g. ["dfcm/4"] or ["raw"]. *)
val method_name : t -> string

(** Pure decode of the whole stream. A packed body is a template parked
    at the left end, read in one pass that never writes it
    ({!Bidir.to_array}): no clone, no live cursor touched, and no
    ledger counts it, since reading the representation is not a
    query. *)
val contents : t -> int array

(** Traversal handles. Each cursor counts its steps, once each, in the
    {!Telemetry} ledger it was made with, under its own row, following
    the counting rule of DESIGN.md ("The cost ledger"). Making a cursor
    over a packed body clones its window/table state, O(length), which
    is safe at any position because that state is a pure function of
    the cursor (see {!Bidir.clone}). Each cursor is single-owner: share
    the stream, not the cursor. *)
module Cursor : sig
  type stream := t

  type t

  (** A fresh cursor at position 0 over [s]'s body, counting in [tally]
      under the row name [label]. *)
  val make : tally:Telemetry.tally -> label:int -> stream -> t

  (** Number of values in the underlying stream. *)
  val length : t -> int

  (** Values revealed so far by forward steps (cursor position). *)
  val pos : t -> int

  (** One step each. Stepping or peeking past an end raises
      [Invalid_argument] naming the operation and the end
      ("Stream.step_forward: at right end" on a raw stream,
      "Bidir.step_forward: …" on a packed one). *)

  val step_forward : t -> int

  val step_backward : t -> int

  (** Peeks are pure reads (see {!Bidir.peek_forward}): they decode no
      entry and count nothing. *)

  val peek_forward : t -> int

  val peek_backward : t -> int

  (** [seek_steps c k] moves the cursor to [k], one seek, and returns
      the steps it took. A raw cursor indexes its array and takes none.
      A packed cursor moving left either steps back or, when the copy
      costs less than the steps it saves, rewinds from the stream's
      template ({!Bidir.rewind}) and steps forward from [0]. *)
  val seek_steps : t -> int -> int

  (** {!seek_steps}, without the count. *)
  val seek : t -> int -> unit

  (** [read_at c k] is the value at index [k]: a seek to [k], then the
      step that reveals it (the cursor ends at [k + 1]). *)
  val read_at : t -> int -> int

  (** Decompress everything: a seek to [0], then a step per value (the
      cursor ends at the right end). *)
  val to_array : t -> int array

  (** [lower_bound c v] is the index of the first value [>= v] in an
      ascending stream ([length c] if none); the cursor finishes there.
      One seek: raw bodies binary-search (no step); packed bodies walk
      from the current position. *)
  val lower_bound : t -> int -> int

  (** [find_ascending c v] is the index of [v] in a stream whose values
      are strictly ascending, or [None]; the cursor finishes where
      {!lower_bound} leaves it. A packed cursor steps from its current
      position, so repeated nearby lookups are cheap — this is what
      makes tier-1 queries faster than tier-2 queries in the paper's
      Tables 6–9. *)
  val find_ascending : t -> int -> int option

  (** [same_state a b]: two cursors over one stream hold the same
      position and decode state (see {!Bidir.same_state}). *)
  val same_state : t -> t -> bool
end

(** Dictionary figures of the body (see {!Bidir.telemetry}): identical
    in every cursor, and all zero for raw bodies — there is no
    predictor. *)
type telemetry = Bidir.telemetry = {
  tl_lookups : int;  (** predictor lookups = entries classified *)
  tl_hits : int;  (** entries the predictor got right *)
  tl_misses : int;  (** entries stored verbatim *)
}

val telemetry : t -> telemetry
