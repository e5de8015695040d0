(** Live progress for long builds, from the pipeline's one renderer of
    progress.

    A reporter is driven by {!Wet_obs.Sink.tick} pulses — the
    interpreter fires one at every heartbeat
    ({!Wet_obs.Sink.heartbeat_every}) and [Builder.Sink] at every shard
    boundary. Each pulse is rate-limited against [interval_ms]; when
    one is due, the reporter reads the live process-view instruments
    (statement count and rate, shard count) and renders one of:

    - [Tty]: a single [\r]-rewritten status line on [stderr]
      ([--progress]);
    - [Jsonl]: one machine-readable heartbeat object per line
      ([--progress-out]), after a
      [{"schema":"wet-obs/2","type":"meta","stream":"pulse"}] header.
      Heartbeat fields, exactly: [type], [seq], [elapsed_ms], [stmts]
      (monotone non-decreasing), [stmts_per_sec], [shards].

    The reporter's own cost is recorded in the same registry it reads:
    ["pulse.reporter.ticks"], ["pulse.reporter.emits"] and the
    ["pulse.reporter.emit_ns"] histogram. *)

type sink = Tty | Jsonl of out_channel

type t

(** [create ?interval_ms out] — [interval_ms] (default 100)
    rate-limits emission; 0 emits on every tick. The [Jsonl] header
    line is written immediately. *)
val create : ?interval_ms:int -> sink -> t

(** Rate-limited: emits when at least [interval_ms] has elapsed since
    the previous emission. *)
val tick : t -> unit

(** Emit unconditionally. *)
val force : t -> unit

(** Final emission, then terminate the TTY status line / flush the
    JSONL channel (the caller closes it). *)
val finish : t -> unit

(** Register {!tick} as the sink's tick callback. *)
val install : t -> unit

val uninstall : unit -> unit
