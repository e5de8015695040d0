(** Bidirectional compressed value streams (paper §4).

    A compressed stream of length [m] with context size [n] is kept as
    three parts: [FR] (values left of the cursor, forward-compressed
    using each value's {e right} context), an uncompressed window of [n]
    values, and [BL] (values right of the cursor, backward-compressed
    using each value's {e left} context). The stream is padded with [n]
    zero sentinels at each end so the window always exists.

    Stepping the cursor forward uncompresses the first [BL] entry into
    the window and compresses the value leaving the window into [FR];
    stepping backward is the mirror image. Both [FR] and [BL] behave as
    stacks, and a miss entry stores the table value it displaced, so
    every step restores the lookup tables exactly — this is what makes
    the traversal bidirectional (paper Fig. 5).

    Four predictors are provided. [Fcm] and [Dfcm] use two hashed lookup
    tables (one per direction), sized to the stream. [Last_n] and
    [Last_stride] use the window itself as the lookup table (the paper's
    single-table design, Fig. 7), so they carry no table state at all. *)

type meth = Fcm | Dfcm | Last_n | Last_stride

val meth_name : meth -> string
val all_meths : meth list

type t

(** [compress meth ~ctx values] builds the compressed stream with the
    cursor parked at the left end (everything in [BL]). It makes one
    right-to-left pass, pushing each value into [BL] with its left
    context — one predictor update per value — and leaves exactly the
    state, hit flags of the window slots included, that stepping the
    cursor to the right end and back to [0] reaches.
    @raise Invalid_argument if [ctx < 1] or [ctx > 16]. *)
val compress : meth -> ctx:int -> int array -> t

(** Number of (real) values in the stream. *)
val length : t -> int

(** Cursor position in [\[0, length\]]: the number of values already
    revealed by forward steps. *)
val cursor : t -> int

(** [clone t] is an independent cursor over the same logical values,
    positioned at the same [cursor].
    Safe at any position: the window/table state is a pure function of
    the cursor (every pop exactly undoes the matching push), so the
    deep copy evolves correctly no matter how the original moves.
    O(length) time and space. *)
val clone : t -> t

(** A stream counts nothing: the cursor that steps it counts each step
    in its {!Telemetry} ledger ([Stream.Cursor]). *)

(** Reveal the value at index [cursor] and advance.
    @raise Invalid_argument at the right end. *)
val step_forward : t -> int

(** Reveal the value at index [cursor - 1] and retreat.
    @raise Invalid_argument at the left end. *)
val step_backward : t -> int

(** Payload bits of the entry the next forward step decodes: 32 for a
    miss, which stores its value, and fewer for a dictionary hit (none
    for the FCM family, log2 of the context for the last-n family).
    Defined for [cursor < length]. *)
val payload_ahead : t -> int

(** {!payload_ahead} of the entry the next backward step decodes.
    Defined for [cursor > 0]. *)
val payload_behind : t -> int

(** Value a forward step would reveal. A pure read of the next BL entry,
    the window and the BL table: it writes nothing, allocates nothing
    and decodes no other entry, so it is not a step.
    @raise Invalid_argument at the right end. *)
val peek_forward : t -> int

(** Value a backward step would reveal: the window's last slot, which
    holds it raw. A pure read, like {!peek_forward}.
    @raise Invalid_argument at the left end. *)
val peek_backward : t -> int

(** Move the cursor to [k] by stepping. *)
val seek : t -> int -> unit

(** [rewind ~template t] moves [t]'s cursor to [0] without decoding: it
    copies from [template] — a stream over the same values parked at
    [0], such as the one [t] was cloned from — the payload and entry
    flags of positions [\[0, cursor t + ctx)] and both tables, the only
    state that differs between the two. Everything right of that prefix
    is already the template's. Costs {!rewind_words} word copies and no
    step.
    @raise Invalid_argument if [template] is not parked at [0] or
    differs in length, method or context. *)
val rewind : template:t -> t -> unit

(** Words {!rewind} would copy at the current cursor: the prefix, its
    flag bits and both tables. *)
val rewind_words : t -> int

(** [same_state a b]: [a] and [b] are at the same cursor and hold the
    same payload, entry flags and tables, which is everything a later
    step or peek reads. The flags of window slots are not compared: a
    window slot keeps whatever flag its last pop or {!rewind} left, and
    no step reads it before a push rewrites it. *)
val same_state : t -> t -> bool

(** [read_at t k] is the value at index [k]; the cursor ends at [k+1]. *)
val read_at : t -> int -> int

(** Analytic size in bits of the compressed representation: one flag bit
    per entry, plus payload bits per miss (32) or per [Last_n]-family hit
    (log2 of the candidate count), plus the 32-bit window values and, for
    the FCM family, the two lookup tables. The in-memory working
    representation is word-aligned and larger; all reported sizes use
    this analytic measure. {!trial} computes the same sum without
    building the stream. *)
val compressed_bits : t -> int

(** Outcome of a selection {!trial}. *)
type trial = {
  trial_bits : int;
      (** [compressed_bits (compress meth ~ctx values)] when below the
          limit; otherwise a partial sum that has reached the limit *)
  trial_entries : int;  (** entries classified before the trial stopped *)
}

(** [trial ?limit meth ~ctx values] runs {!compress}'s right-to-left
    pass over [values] and sums the entry bits as {!compressed_bits}
    would, without keeping the stream. It stops as soon as the sum
    reaches [limit] (default [max_int]): every entry adds at least one
    bit, so [trial_bits >= limit] exactly when the built stream's
    [compressed_bits] is at least [limit], and [trial_bits] equals it
    otherwise. This is what lets selection drop a losing candidate
    early.
    @raise Invalid_argument if [ctx < 1] or [ctx > 16]. *)
val trial : ?limit:int -> meth -> ctx:int -> int array -> trial

(** Decompress the whole stream of a template parked at the left end,
    in one left-to-right pass that only reads it: each BL entry decodes
    from the values already revealed and a private copy of the BL
    table, and no FR entry is pushed. The cursor does not move and no
    step is taken; the template's state after the call is its state
    before ({!same_state}).
    @raise Invalid_argument if the cursor is not at [0]. *)
val to_array : t -> int array

val meth : t -> meth

(** Context size the stream was compressed with. *)
val ctx : t -> int

(** Dictionary figures of the representation, derived from the persisted
    hit bitvec (one classified entry per padded value outside the
    window), so they are cursor-independent and cost nothing on the push
    path: [tl_lookups = length + ctx] and
    [tl_hits + tl_misses = tl_lookups] always. *)
type telemetry = {
  tl_lookups : int;  (** predictor lookups = entries classified *)
  tl_hits : int;  (** entries the predictor got right (flag-bit only) *)
  tl_misses : int;  (** entries stored verbatim (32-bit payload) *)
}

val telemetry : t -> telemetry
