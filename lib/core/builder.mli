(** WET construction (tier-1) and stream packing (tier-2).

    Tier-1 customized compression runs while the interpreter executes
    the program, on the event stream it delivers:
    {ul
    {- nodes are interned per executed Ball–Larus path, so one timestamp
       is recorded per path execution rather than per block (§3.1);}
    {- value sequences are split into input groups with shared patterns
       and per-copy unique values (§3.2);}
    {- dependence slots whose producer always lies in the same node
       execution become label-free {!Wet.Local} links, and labeled edges
       between the same node pair with identical sequences share one
       label record (§3.3);}
    {- equal sequences of one stream class (unique values, patterns,
       either side of the labels) are one shared body.}}

    A {!Sink} consumes interpreter events incrementally, buffers at
    most about one shard of raw events, runs the compression eagerly
    per shard, and splices the shard streams into the final {!Wet.t} at
    {!Sink.finish}; the uncompressed trace never exists. The shard size
    is unobservable: every shard size yields the same container, and
    {!Wet_interp.Interp.run}'s materialized {!Wet_interp.Trace.t} is
    the independent reference that container is checked against.

    All label sequences are raw after tier-1; {!pack} rewrites each
    distinct body once as a bidirectionally compressed stream with
    per-stream method selection (§4), leaving the graph structure and
    the sharing untouched.

    Failures raise [Wet_error.Error] (stage [Build] or [Pack]). *)

(** A bounded-memory consumer of {!Wet_interp.Interp.event_sink}
    events. Feed it by passing {!Sink.events} to
    {!Wet_interp.Interp.run_with_sink}, then call {!Sink.finish}.

    Buffering is bounded by [shard_events] plus whatever an unreturned
    call pins: a call's return-value link is patched only when the
    callee returns, so the replay holds back the caller's path
    execution (and everything after it) until then — deep recursion
    temporarily widens the window. Eviction of replayed positions uses
    the live-position iterator the interpreter hands over through
    [es_live]. *)
module Sink : sig
  type t

  (** 65536 — the default shard size, in raw trace events. *)
  val default_shard_events : int

  (** [create analysis] makes an empty sink.

      @param shard_events flush automatically after about this many
        buffered events (clamped to at least 1; default
        {!default_shard_events}).
      @param track_peak sample [Gc.stat] live words at shard
        boundaries and expose the maximum via {!peak_live_words};
        off by default because [Gc.stat] walks the heap. *)
  val create :
    ?shard_events:int -> ?track_peak:bool -> Wet_cfg.Program_analysis.t -> t

  (** The sink as an interpreter event sink: every event is fed in, and
      a path end may flush a shard. *)
  val events : t -> Wet_interp.Interp.event_sink

  (** Replay and compress everything the buffer allows, then evict
      positions no future event can reference. Called automatically
      every [shard_events] fed events; callable explicitly. *)
  val flush_shard : t -> unit

  (** Drain the buffer, resolve deferred forward references and splice
      the shard streams into the final tier-1 WET. The sink cannot be
      used afterwards. *)
  val finish : t -> Wet.t

  (** Number of shard flushes so far (auto and explicit). *)
  val shard_count : t -> int

  (** Maximum [Gc.stat] live words observed at shard boundaries, 0
      unless [track_peak] was set. *)
  val peak_live_words : t -> int
end

(** Tier-2: compress every label stream of a tier-1 WET, each shared
    body and label record once. The input WET remains usable.
    @raise Wet_error.Error if already packed. *)
val pack : Wet.t -> Wet.t

(** [run_streaming ~program ~input ()] builds a WET: interpret
    [program] directly into a {!Sink} — no [Trace.t] is ever allocated,
    so peak memory is bounded by the shard size plus the final WET, not
    by execution length — and return the tier-1 WET. [shard_events] is
    passed to {!Sink.create}; the remaining optional arguments match
    {!Wet_interp.Interp.run}. *)
val run_streaming :
  ?shard_events:int ->
  ?max_stmts:int ->
  ?interprocedural_cd:bool ->
  ?analysis:Wet_cfg.Program_analysis.t ->
  program:Wet_ir.Program.t ->
  input:int array ->
  unit ->
  Wet.t

(** Durable builds: {!run_streaming} with a {!Wet_journal.Journal}
    recording enough at every shard boundary to survive [kill -9].

    {!Checkpoint.build} writes one header record (the post-optimization
    program, the input, and the build configuration — a resumed build
    needs nothing else) and then one checkpoint record per flushed
    shard, taken with the sink quiescent (replay caught up, windows
    trimmed): a marshalled snapshot of everything the sink has learned,
    its watermark (the number of events it has consumed) and shard
    count included. Every record is CRC'd and fsync'd before the build
    proceeds, so a crash at any byte loses at most the work since the
    last flushed shard.

    {!Checkpoint.resume} reads the longest intact journal prefix,
    truncates any torn tail (never trusting it), restores the last
    checkpoint's snapshot, and re-executes the program deterministically
    with the events the restored sink already consumed suppressed
    ({!Wet_interp.Interp.fast_forward}). The result is byte-identical
    to an uninterrupted build — the invariant the kill-campaign tests
    enforce. Recovery keeps checkpointing into the same journal, so a
    second death during recovery is itself recoverable.

    Failures raise [Wet_error.Error] with stage [Journal]. *)
module Checkpoint : sig
  (** Decoded header record. *)
  type header = {
    h_program : Wet_ir.Program.t;
        (** post-optimization: resume never re-optimizes *)
    h_input : int array;
    h_shard_events : int;
    h_checkpoint_every : int;  (** journal every n-th shard flush *)
    h_max_stmts : int option;
    h_interprocedural_cd : bool;
    h_tier2 : bool;
        (** the build was asked for tier-2 packing; recorded so
            [wet build --resume] repacks without being retold *)
    h_label : string;  (** free-form provenance, e.g. the source path *)
  }

  type resumed = {
    r_wet : Wet.t;  (** tier-1; pack per [r_header.h_tier2] *)
    r_header : header;
    r_replayed_shards : int;
        (** shards fast-forwarded through instead of rebuilt *)
    r_torn_tail : bool;
        (** the journal ended in a torn record that was truncated *)
    r_resume_ms : float;
        (** wall time to re-execute up to the watermark *)
  }

  (** [build ~journal ~program ~input ()] is {!run_streaming} with
      checkpoints journaled to [journal] (created or truncated). The
      returned WET is tier-1; [tier2] is only recorded in the header.
      [on_header_written] runs once the header record is durable — the
      kill campaign arms {!Wet_journal.Journal.kill_after_records} /
      [kill_after_bytes] there, so seeded kill offsets are relative to
      the checkpoint stream and recovery always finds a header. *)
  val build :
    ?shard_events:int ->
    ?checkpoint_every:int ->
    ?max_stmts:int ->
    ?interprocedural_cd:bool ->
    ?analysis:Wet_cfg.Program_analysis.t ->
    ?tier2:bool ->
    ?label:string ->
    ?on_header_written:(unit -> unit) ->
    journal:string ->
    program:Wet_ir.Program.t ->
    input:int array ->
    unit ->
    Wet.t

  (** [resume ~journal ()] recovers an interrupted {!build} (see the
      module doc) and finishes it, continuing to checkpoint into
      [journal]. Records the [journal.replayed_shards] and
      [journal.resume_ms] metrics.
      @raise Wet_error.Error (stage [Journal]) if the journal is
        unreadable or holds no intact header. *)
  val resume : journal:string -> unit -> resumed
end
