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
    query history. All traversal state (position, direction, the
    bidirectional window/table state) lives in {!Cursor.t} handles. A
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

(** Pure decode of the whole stream. Never touches any live cursor
    (packed bodies are cloned first), and accounts to a scratch tally —
    reading the representation is not traversal. *)
val contents : t -> int array

(** Explicit traversal handles. [make] is O(1); the first traversal of a
    packed body pays one O(length) clone of the window/table state,
    which is safe at any position because that state is a pure function
    of the cursor (see {!Bidir.clone}). Each cursor is single-owner:
    share the stream, not the cursor. *)
module Cursor : sig
  type stream := t

  type t

  (** A fresh cursor at position 0 over [s]'s body. O(1). *)
  val make : stream -> t

  (** Number of values in the underlying stream. *)
  val length : t -> int

  (** Values revealed so far by forward steps (cursor position). *)
  val pos : t -> int

  (** Traversal ops attribute their decode work to [tally] (default
      {!Telemetry.default}). Stepping or peeking past an end raises
      [Invalid_argument] naming the operation and the end
      ("Stream.step_forward: at right end", …). *)

  val step_forward : ?tally:Telemetry.tally -> t -> int

  val step_backward : ?tally:Telemetry.tally -> t -> int

  (** Peeks are pure reads (see {!Bidir.peek_forward}): they decode no
      entry, and no tally or counter sees them. *)

  val peek_forward : t -> int

  val peek_backward : t -> int

  (** [seek_steps c k] moves the cursor to [k] and returns the entries
      it decoded. A raw cursor indexes its array and decodes nothing
      (0). A packed cursor moving left either steps back or, when the
      copy costs less than the steps it saves, rewinds from the
      stream's template ({!Bidir.rewind}) and steps forward from [0];
      the count is the steps it took. *)
  val seek_steps : ?tally:Telemetry.tally -> t -> int -> int

  (** {!seek_steps}, without the count. *)
  val seek : ?tally:Telemetry.tally -> t -> int -> unit

  (** [read_at c k] is the value at index [k] (moves the cursor to
      [k + 1], reaching [k] as {!seek} does). *)
  val read_at : ?tally:Telemetry.tally -> t -> int -> int

  (** Decompress everything (moves the cursor to the right end). *)
  val to_array : ?tally:Telemetry.tally -> t -> int array

  (** [lower_bound c v] is the index of the first value [>= v] in an
      ascending stream ([length c] if none); the cursor finishes there.
      Raw bodies binary-search (O(1) cursor moves); packed bodies walk
      from the current position. *)
  val lower_bound : ?tally:Telemetry.tally -> t -> int -> int

  (** [find_ascending c v] is the index of [v] in a stream whose values
      are strictly ascending, or [None]. Packed cursors step from their
      current position, so repeated nearby lookups are cheap — this is
      what makes tier-1 queries faster than tier-2 queries in the
      paper's Tables 6–9. *)
  val find_ascending : ?tally:Telemetry.tally -> t -> int -> int option

  (** [same_state a b]: two cursors over one stream hold the same
      position and decode state (see {!Bidir.same_state}). An untouched
      cursor stands at [0] in the template's state. *)
  val same_state : t -> t -> bool
end

(** Dictionary figures of the body (see {!Bidir.telemetry}): identical
    in every cursor, and all zero for raw bodies — there is no
    predictor. Traversal is counted in the {!Telemetry.tally} a cursor
    steps against. *)
type telemetry = {
  tl_lookups : int;  (** predictor lookups = entries classified *)
  tl_hits : int;  (** entries the predictor got right *)
  tl_misses : int;  (** entries stored verbatim *)
}

val telemetry : t -> telemetry
