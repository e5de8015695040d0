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
    query history. All traversal state (position, direction, per-cursor
    step counters, the bidirectional window/table state) lives in
    {!Cursor.t} handles. A body may be read through any number of
    concurrent cursors; each cursor is single-owner.

    The historical module-level traversal functions below survive as
    deprecated wrappers over one implicit {e default cursor} per stream:
    correct for single-session use, not for concurrent readers. *)

type t

(** All candidate (method, context) pairs, in trial order. *)
val candidates : (Bidir.meth * int) list

(** [compress values] picks the best method for this stream and builds
    the compressed representation (no cursor attached). *)
val compress : int array -> t

(** Force a specific representation (for ablations and tests). *)
val compress_with : [ `Raw | `Bidir of Bidir.meth * int ] -> int array -> t

val length : t -> int

(** Analytic compressed size in bits (32 bits per value when raw). *)
val bits : t -> int

(** Human-readable method name, e.g. ["dfcm/4"] or ["raw"]. *)
val method_name : t -> string

(** Pure decode of the whole stream. Never touches the default cursor
    or any live cursor (packed bodies are cloned first), and accounts to
    a scratch tally — reading the representation is not traversal. *)
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

  (** Traversal ops mirror the historical stream-level API, with decode
      work attributed to [tally] (default {!Telemetry.default}). Bounds
      violations raise the same [Invalid_argument] messages as before
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

  (** Per-cursor traversal counters (zero before the first touch). *)

  val fwd_steps : t -> int

  val bwd_steps : t -> int

  val dir_switches : t -> int
end

(** The stream's implicit default cursor (minted lazily, O(1)) — the
    handle behind the deprecated wrappers below. [Wet]'s implicit
    default session reads through these so that legacy single-session
    call sites and the module-level functions observe the same
    positions. *)
val default_cursor : t -> Cursor.t

(** {1 Deprecated implicit-cursor surface}

    Every function below operates on the stream's implicit default
    cursor (minted lazily on first use). Safe only when the stream has a
    single traversing owner; concurrent readers must use {!Cursor}. *)

(** Position of the default cursor (0 when none was ever minted). *)
val cursor : t -> int
[@@deprecated "use Stream.Cursor"]

val step_forward : t -> int
[@@deprecated "use Stream.Cursor"]

val step_backward : t -> int
[@@deprecated "use Stream.Cursor"]

val peek_forward : t -> int
[@@deprecated "use Stream.Cursor"]

val peek_backward : t -> int
[@@deprecated "use Stream.Cursor"]

val seek : t -> int -> unit
[@@deprecated "use Stream.Cursor"]

(** [read_at t k] is the value at index [k] (moves the default cursor). *)
val read_at : t -> int -> int
[@@deprecated "use Stream.Cursor"]

(** Decompress everything (moves the default cursor). *)
val to_array : t -> int array
[@@deprecated "use Stream.contents or Stream.Cursor.to_array"]

val find_ascending : t -> int -> int option
[@@deprecated "use Stream.Cursor"]

val lower_bound : t -> int -> int
[@@deprecated "use Stream.Cursor"]

(** Per-stream telemetry (see {!Bidir.telemetry}). Dictionary figures
    come from the immutable body (identical in every cursor; all zero
    for raw bodies — there is no predictor). Traversal counters report
    the {e default cursor}'s steps only — per-session traversal lives
    in the session's {!Telemetry.tally}. *)
type telemetry = Bidir.telemetry = {
  tl_lookups : int;
  tl_hits : int;
  tl_misses : int;
  tl_fwd_steps : int;
  tl_bwd_steps : int;
  tl_dir_switches : int;
}

val telemetry : t -> telemetry

(** Zero the default cursor's traversal counters (no-op if it was never
    minted). *)
val reset_telemetry : t -> unit

(** Drop the default cursor entirely: the stream reverts to its pristine
    as-built state (position 0, zero counters). [Wet.rewind] calls this
    so saved containers stay byte-deterministic. Live explicit cursors
    are unaffected. *)
val drop_cursor : t -> unit
