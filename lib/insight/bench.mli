(** The persisted bench observatory: machine-readable bench runs
    ([BENCH_PR*.json]) and the regression gate behind
    `wet bench-check`.

    A {!run} is one invocation of `bench observatory`: per workload, the
    throughput, compression and query-cost figures of the paper's
    Tables 2–9, with wall-clock percentiles over [repeat] timed
    iterations after [warmup] discarded ones. {!check} diffs two runs
    metric by metric with direction-aware relative thresholds; wall
    metrics share a loose noise threshold, deterministic size/step
    metrics a tight one. *)

type sample = {
  workload : string;
  scale : int;
  stmts : int;  (** statements executed *)
  stmts_per_sec : float;  (** build throughput, p50 wall *)
  bytes_per_label_t1 : float;  (** stored bytes / stmt, tier-1 *)
  bytes_per_label_t2 : float;  (** stored bytes / stmt, tier-2 *)
  ratio_t1 : float;  (** orig bytes / tier-1 bytes *)
  ratio_t2 : float;  (** orig bytes / tier-2 bytes *)
  build_p50_ms : float;
  build_p95_ms : float;
  query_p50_ms : float;  (** fixed query sweep, see bench/main.ml *)
  query_p95_ms : float;
  query_switches : int;
      (** steps of the profiled sweep that reversed their cursor's
          direction (deterministic) *)
  build_peak_words : int;
      (** peak GC live-word delta of a streaming build (0 = untracked or
          a pre-streaming file) *)
  wet_words : int;  (** reachable words of the finished tier-1 WET *)
  shards : int;  (** shard flushes the streaming build performed *)
  stream_p50_ms : float;
      (** fused interp+build wall, observability off (0 = pre-pulse
          file) *)
  stream_progress_p50_ms : float;
      (** same fused build with a live progress reporter armed; the
          difference against {!stream_p50_ms} is the reporter's
          overhead *)
  query_decode_steps : int;
      (** ledger steps the profiled tier-2 query sweep pays
          (deterministic; 0 = pre-qprof file) *)
  query_bits_touched : int;
      (** stored bits the profiled sweep touches (deterministic) *)
  qlog_overhead_frac : float;
      (** relative wall overhead of running the sweep under profiling
          contexts with a qlog sink vs. plain — recorded, not gated *)
  stream_checkpoint_p50_ms : float;
      (** fused streaming build with a checkpoint journal armed (one
          snapshot + fsync'd append per shard); gated at the wall
          threshold — the "journal overhead stays bounded" guarantee
          (0 = pre-journal file) *)
  checkpoint_overhead_frac : float;
      (** (stream_checkpoint_p50_ms - stream_p50_ms) / stream_p50_ms —
          a ratio of two noisy walls, recorded but never gated *)
  resume_ms : float;
      (** wall time for a crash recovery killed at the midpoint shard:
          read journal, restore snapshot, re-execute to the watermark —
          recorded, not gated (one-shot, dominated by re-execution) *)
  serve_p50_ms : float;
      (** round-trip wall for a trace query through an in-process serve
          daemon over a Unix socket, hot cache; gated at the wall
          threshold (0 = pre-serve file) *)
  serve_p95_ms : float;
      (** tail of the same round trips — recorded, not gated *)
  serve_mt_p50_ms : float;
      (** per-request round-trip p50 with 4 client threads hammering
          the daemon concurrently (each connection on its own session);
          gated at the wall threshold (0 = pre-session file) *)
  serve_mt_rps : float;
      (** aggregate requests/sec of the 4-client burst — the lock-free
          read path's throughput headroom over the single client;
          higher is better, gated at the wall threshold *)
}

type run = {
  label : string;
  quick : bool;
  repeat : int;
  warmup : int;
  samples : sample list;
}

(** [percentile p xs] is the nearest-rank [p]-quantile ([p] in [[0,1]]).
    @raise Invalid_argument on an empty list. *)
val percentile : float -> float list -> float

val to_json : run -> Json.t

val of_json : Json.t -> (run, string) result

val save : run -> string -> unit

val load : string -> (run, string) result

type thresholds = {
  wall_frac : float;  (** relative tolerance for wall-clock metrics *)
  size_frac : float;  (** for deterministic size/step metrics *)
}

(** [{ wall_frac = 0.25; size_frac = 0.02 }]. *)
val default_thresholds : thresholds

type verdict = {
  v_workload : string;
  v_metric : string;
  v_prev : float;
  v_cur : float;
  v_worse_frac : float;
      (** signed, direction-normalised: positive = worse *)
  v_threshold : float;
  v_regressed : bool;  (** [v_worse_frac > v_threshold], strictly *)
}

(** One verdict per (workload present in both runs) × metric. Workloads
    only in [cur] produce no verdicts; a non-positive previous value
    never regresses. Exactly-at-threshold is a pass. *)
val check : thresholds -> prev:run -> cur:run -> verdict list

val regressed : verdict list -> bool
