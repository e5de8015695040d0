(** The global observation sink.

    Every instrumentation hook in the pipeline is guarded by the single
    {!enabled} flag: with no sink installed a hook costs one load and a
    conditional branch, so instrumented code paths run at full speed.
    {!enable} arms the whole library — metric mutations start taking
    effect and spans start accumulating trace events in an in-memory
    buffer that {!Export} serialises, or go to the installed tap
    ({!set_tap}) instead. *)

(** Attribute values attached to spans and events. *)
type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  ev_name : string;
  ev_ts_ns : int;  (** monotonic start time *)
  ev_dur_ns : int option;  (** [Some] for spans, [None] for instants *)
  ev_depth : int;  (** span-stack depth at emission (0 = root) *)
  ev_attrs : (string * value) list;
}

(** Master switch, read directly by the hooks. Prefer {!enable} /
    {!disable} over writing it, so the event buffer stays consistent. *)
val enabled : bool ref

(** Arm the sink: clears the event buffer, stamps a fresh time origin
    and sets {!enabled}. Metric values are left untouched (use
    {!Metrics.reset} for a clean slate). *)
val enable : unit -> unit

val disable : unit -> unit

(** Monotonic time at the last {!enable} — the origin Chrome-trace
    timestamps are made relative to. *)
val epoch_ns : unit -> int

(** Append an event to the buffer, or hand it to the installed
    {!set_tap} observer instead (no-op when disabled; the hooks check
    first). Each event has one home: a tapped event never reaches the
    buffer. *)
val record : event -> unit

(** All events recorded since {!enable} while no tap was installed, in
    emission order. Spans are emitted when they close, so a parent
    appears after its children. *)
val events : unit -> event list

(** Install an observer that takes every {!record}ed event in place of
    the buffer — how [Wet_serve.Ring], the [wet serve] daemon's bounded
    ring, keeps its request spans without the sink growing a dependency
    on it or an unbounded buffer growing beside it. At most one tap is
    installed; a new {!set_tap} replaces the previous one. *)
val set_tap : (event -> unit) -> unit

val clear_tap : unit -> unit

(** Emit a heartbeat every N statement executions inside
    {!Wet_interp.Interp.run} (0, the default, turns the heartbeat off).
    Read once per run, so set it before calling the interpreter. *)
val heartbeat_every : int ref

(** [tick ()] invokes the {!set_on_tick} callback when the sink is
    enabled — the pipeline's progress pulse. The interpreter calls it
    at every heartbeat and [Builder.Sink] at every shard boundary;
    {!Reporter} rate-limits and renders. Costs one flag read
    when disabled, one option match when no callback is installed. *)
val tick : unit -> unit

val set_on_tick : (unit -> unit) -> unit
val clear_on_tick : unit -> unit
