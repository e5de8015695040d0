(** The persisted bench observatory: machine-readable bench runs
    ([BENCH_PR*.json]) and the regression gate behind
    `wet bench-check`.

    A {!run} is one invocation of `bench observatory`: per workload, the
    sizes and compression ratios of the paper's Tables 1–3, the memory a
    build and its WET hold, and the decode cost of one profiled query
    sweep. No field is a clock reading, so two runs of one commit agree
    exactly and {!check} gates every column at one tight {!threshold}.
    Timings come from perfbench, not from here. *)

type sample = {
  workload : string;
  scale : int;
  stmts : int;  (** statements executed *)
  bytes_per_label_t1 : float;  (** stored bytes / stmt, tier-1 *)
  bytes_per_label_t2 : float;  (** stored bytes / stmt, tier-2 *)
  ratio_t1 : float;  (** orig bytes / tier-1 bytes *)
  ratio_t2 : float;  (** orig bytes / tier-2 bytes *)
  wet_words : int;  (** reachable words of the finished tier-1 WET *)
  build_peak_words : int;
      (** peak GC live-word delta of a streaming build *)
  shards : int;  (** shard flushes the streaming build performed *)
  query_decode_steps : int;
      (** ledger steps the profiled tier-2 query sweep pays *)
  query_bits_touched : int;  (** stored bits the profiled sweep touches *)
  query_switches : int;
      (** steps of the profiled sweep that reversed their cursor's
          direction *)
}

type run = { samples : sample list }

(** [percentile p xs] is the nearest-rank [p]-quantile ([p] in [[0,1]]).
    @raise Invalid_argument on an empty list. *)
val percentile : float -> float list -> float

(** A ["wet-bench/2"] document; every sample field is written. *)
val to_json : run -> Json.t

(** Every field is required. A ["wet-bench/1"] document, from before the
    observatory dropped its wall-clock columns, is refused with a hint
    to regenerate it. *)
val of_json : Json.t -> (run, string) result

val save : run -> string -> unit

val load : string -> (run, string) result

(** The relative worsening every gated column may show: 0.02. *)
val threshold : float

type verdict = {
  v_workload : string;
  v_metric : string;
  v_prev : float;
  v_cur : float;
  v_worse_frac : float;
      (** signed, direction-normalised: positive = worse *)
  v_regressed : bool;  (** [v_worse_frac > threshold], strictly *)
}

(** One verdict per (workload present in both runs) × gated column:
    every sample field but [workload], [scale] and [stmts]. Workloads
    only in [cur] produce no verdicts; a non-positive previous value
    never regresses. Exactly-at-threshold is a pass. [Error] when a
    workload ran at a different scale in the two runs, whose figures
    do not compare. *)
val check : prev:run -> cur:run -> (verdict list, string) result

val regressed : verdict list -> bool
