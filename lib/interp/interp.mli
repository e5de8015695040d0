(** The IR interpreter — the repository's stand-in for the paper's
    simulator-based profiler. It executes a program on a given input
    stream and records its raw whole-execution trace: either delivered
    incrementally to an {!event_sink} as it happens ({!run_with_sink}),
    which is how the WET builder consumes it, compressing on the fly
    without the full event list ever existing, or materialized as a
    {!Trace.t} ({!run}), the independent reference WETs are checked
    against. No instrumentation of the program itself.

    Semantics notes: registers and memory words start at 0; arithmetic is
    63-bit OCaml [int] arithmetic; shift amounts are masked to 6 bits (63 saturates);
    [Shr] is arithmetic; division or remainder by zero, out-of-bounds
    memory accesses, exhausted input and exceeded statement budgets all
    raise [Wet_error.Error] with stage [Interp]. *)

(** Callbacks receiving trace events in execution order. The streams are
    the positional streams of {!Trace.t}, delivered element by element:

    - [es_block cd] — a basic block was entered; [cd] is the position of
      its control-dependence producer (-1 for none), one call per
      element of [Trace.cd_producer].
    - [es_dep p] — the next dependence slot links to producer position
      [p] (-1 for none), one call per element of [Trace.deps].
    - [es_stmt v] — a statement completed with value [v], one call per
      element of [Trace.values].
    - [es_path key] — a path execution ended with encoded key [key], one
      call per element of [Trace.paths].
    - [es_call ()] — the value and dependence slot just emitted belong
      to a call with a return destination: both are placeholders that
      will be patched by exactly one later [es_ret] (calls nest, so
      patches arrive in LIFO order).
    - [es_ret v p] — the innermost pending call returned: its statement
      value becomes [v] and its return-link dependence slot resolves to
      producer position [p].
    - [es_live iter] — called once before execution starts, handing the
      sink an iterator over every position a future event may still
      reference (live register/memory shadows, branch histories and
      calling contexts). A bounded-memory consumer calls it at flush
      time to decide what survives eviction; [iter f] may call [f] with
      -1 and with duplicate positions.

    Memory operations ([Trace.mem_ops]) are not delivered: they are a
    replay aid for trace verification and are not consumed by the
    builder. *)
type event_sink = {
  es_block : int -> unit;
  es_dep : int -> unit;
  es_stmt : int -> unit;
  es_path : int -> unit;
  es_call : unit -> unit;
  es_ret : int -> int -> unit;
  es_live : ((int -> unit) -> unit) -> unit;
}

(** [fast_forward n sink] wraps [sink] for crash recovery: the first
    [n] events (of any kind; [es_live] is not an event) are counted off
    and dropped, because the restored sink consumed them before the
    crash, and every later event is forwarded untouched. Execution is
    deterministic, so [n], the number of events a checkpointed consumer
    had absorbed, identifies a unique point of the run: the resume
    point of a crash-recovered streaming build. [es_live] always passes
    through, since the live-position iterator carries no history and
    the sink must re-learn it. A suppressed [es_call] is also not
    re-pushed on the consumer's pending-call LIFO; its eventual
    [es_ret], arriving after the first [n] events, pops the entry the
    restored sink already holds. [on_caught_up] fires once, when the
    [n]-th event has been dropped, or at once if [n] is 0, when [sink]
    itself is returned. *)
val fast_forward :
  ?on_caught_up:(unit -> unit) -> int -> event_sink -> event_sink

type result = {
  trace : Trace.t;
  outputs : int array;  (** values passed to [Output], in order *)
  stmts_executed : int;
}

(** [run program ~input] executes [program] from [main] and materializes
    the full trace.

    @param max_stmts statement budget (default [2_000_000_000]).
    @param interprocedural_cd record the calling statement's instance as
      the control-dependence producer of blocks with no intraprocedural
      parent (function entries and unconditional prologue blocks).
      Default [false], matching the paper's intraprocedural control
      dependence; turning it on makes backward slices pull in the full
      calling context.
    @param analysis reuse a precomputed {!Wet_cfg.Program_analysis.t}
      instead of analysing [program] again.
    @raise Wet_error.Error on any dynamic error. *)
val run :
  ?max_stmts:int ->
  ?interprocedural_cd:bool ->
  ?analysis:Wet_cfg.Program_analysis.t ->
  Wet_ir.Program.t ->
  input:int array ->
  result

(** [run_with_sink ~sink program ~input] executes like {!run} but hands
    every trace event to [sink] instead of materializing a {!Trace.t} —
    peak memory stays bounded by the consumer's buffering policy, not by
    execution length. Returns (outputs, statements executed).

    @param resume_at fast-forward the run: wrap [sink] in
      {!fast_forward} so the first [resume_at] events are re-executed
      but not re-delivered — the crash-recovery path of a checkpointed
      streaming build. [on_caught_up] is passed through.
    @raise Wet_error.Error as {!run}. *)
val run_with_sink :
  ?max_stmts:int ->
  ?interprocedural_cd:bool ->
  ?analysis:Wet_cfg.Program_analysis.t ->
  ?resume_at:int ->
  ?on_caught_up:(unit -> unit) ->
  sink:event_sink ->
  Wet_ir.Program.t ->
  input:int array ->
  int array * int

(** [outputs_only program ~input] runs without recording a trace — a
    fast path for program-correctness tests and native-speed baselines.
    @raise Wet_error.Error as {!run}. *)
val outputs_only :
  ?max_stmts:int -> Wet_ir.Program.t -> input:int array -> int array
