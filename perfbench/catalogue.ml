(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   lists the same names and units; the self-test holds the two equal.
   Definitions live in README.md. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("build_stmts_per_s", "stmts/s");
    ("container_bytes_per_stmt", "B/stmt");
    ("peak_rss_mb", "MB");
    ("recover_ms_p50", "ms");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("req_per_s", "1/s");
  ]

(* A note that keeps the end-to-end metrics as measured, before they
   were scaled to the reference speed: [loop_ms] is the speed probe's
   mean over the run, [scale] the factor applied to the busy times of
   the jobs (build workloads) or of the measured phase (serve). *)
let speed_note ~loop_ms ~scale measured =
  Printf.sprintf
    "speed probe: %.4f ms a loop over the run (reference %.2f ms), busy times scaled \
     by %.4f; as measured: %s"
    loop_ms Common.reference_ms scale
    (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s %.6g" n v) measured))

(* [error_rate] is reported beside the end-to-end metrics and in the
   result's [attempted]/[failed] fields; it is 0 on a correct program,
   so it cannot be a bounded metric (a bound is a share of the median). *)
let error_rate = ("error_rate", "ratio")

let per_layer =
  [
    ("frontend.busy_ms", "ms");
    ("interp.busy_ms", "ms");
    ("sink.busy_ms", "ms");
    ("sink.shards", "count");
    ("sink.peak_words", "words");
    ("pack.busy_ms", "ms");
    ("pack.bits_per_stmt", "bit/stmt");
    ("store.save.busy_ms", "ms");
    ("store.overhead_ratio", "ratio");
    ("journal.busy_ms", "ms");
    ("journal.records", "count");
    ("journal.bytes_per_stmt", "B/stmt");
    ("journal.container_ratio", "ratio");
    ("resume.busy_ms", "ms");
    ("resume.fast_forward_ms", "ms");
    ("resume.replayed_shards", "count");
    ("store.load.busy_ms", "ms");
    ("store.load.bytes", "B");
    ("wet.validate.busy_ms", "ms");
    ("serve.cache.hit_ratio", "ratio");
    ("serve.cache.misses", "count");
    ("serve.cache.evictions", "count");
    ("session.open.busy_ms", "ms");
    ("serve.sessions.opened", "count");
    ("query.busy_ms", "ms");
    ("query.decode_steps", "count");
    ("query.bits_touched", "bit");
    ("query.dict_hit_ratio", "ratio");
    ("query.rows_per_step", "ratio");
    ("slice.busy_ms", "ms");
    ("slice.instances", "count");
    ("render.busy_ms", "ms");
    ("qprof.busy_ms", "ms");
    ("protocol.busy_ms", "ms");
    ("protocol.response_bytes", "B");
    ("serve.wait_ms", "ms");
    ("wet.resident_words", "words");
    ("tracing.overhead_pct", "%");
    ("layers.unexplained_pct", "%");
  ]

(* The layer-sum checks' tolerance: the share of the walls the layer
   spans may leave unexplained; how far a layer measured by difference
   (sink, journal, render, qprof) may read below zero, as a share of its
   parent; and how far below zero [serve.wait_ms] may read, as a share
   of the untraced service time. *)
let layer_tolerance_pct = 5.

(* What one run measured. [values] holds the metrics of the run's mode;
   [checks] are the output checks and [layer_checks] the layer-sum
   checks of a traced run, each a failure when [false]. *)
type outcome = {
  attempted : int;
  failed : int;
  values : (string * float) list;
  checks : (string * bool) list;
  layer_checks : (string * bool) list;
  notes : string list;
}
