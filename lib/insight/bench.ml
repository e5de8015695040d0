type sample = {
  workload : string;
  scale : int;
  stmts : int;
  stmts_per_sec : float;
  bytes_per_label_t1 : float;
  bytes_per_label_t2 : float;
  ratio_t1 : float;
  ratio_t2 : float;
  build_p50_ms : float;
  build_p95_ms : float;
  query_p50_ms : float;
  query_p95_ms : float;
  query_switches : int;
  build_peak_words : int;
  wet_words : int;
  shards : int;
  stream_p50_ms : float;
  stream_progress_p50_ms : float;
  query_decode_steps : int;
  query_bits_touched : int;
  qlog_overhead_frac : float;
  stream_checkpoint_p50_ms : float;
  checkpoint_overhead_frac : float;
  resume_ms : float;
  serve_p50_ms : float;
  serve_p95_ms : float;
  serve_mt_p50_ms : float;
  serve_mt_rps : float;
}

type run = {
  label : string;
  quick : bool;
  repeat : int;
  warmup : int;
  samples : sample list;
}

(* Nearest-rank on a sorted copy; [p] in [0,1]. *)
let percentile p xs =
  match xs with
  | [] -> invalid_arg "Bench.percentile: empty"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* ---------------- JSON round trip ---------------- *)

let sample_json s =
  Json.Obj
    [
      ("workload", Json.Str s.workload);
      ("scale", Json.Num (float_of_int s.scale));
      ("stmts", Json.Num (float_of_int s.stmts));
      ("stmts_per_sec", Json.Num s.stmts_per_sec);
      ("bytes_per_label_t1", Json.Num s.bytes_per_label_t1);
      ("bytes_per_label_t2", Json.Num s.bytes_per_label_t2);
      ("ratio_t1", Json.Num s.ratio_t1);
      ("ratio_t2", Json.Num s.ratio_t2);
      ("build_p50_ms", Json.Num s.build_p50_ms);
      ("build_p95_ms", Json.Num s.build_p95_ms);
      ("query_p50_ms", Json.Num s.query_p50_ms);
      ("query_p95_ms", Json.Num s.query_p95_ms);
      ("query_switches", Json.Num (float_of_int s.query_switches));
      ("build_peak_words", Json.Num (float_of_int s.build_peak_words));
      ("wet_words", Json.Num (float_of_int s.wet_words));
      ("shards", Json.Num (float_of_int s.shards));
      ("stream_p50_ms", Json.Num s.stream_p50_ms);
      ("stream_progress_p50_ms", Json.Num s.stream_progress_p50_ms);
      ("query_decode_steps", Json.Num (float_of_int s.query_decode_steps));
      ("query_bits_touched", Json.Num (float_of_int s.query_bits_touched));
      ("qlog_overhead_frac", Json.Num s.qlog_overhead_frac);
      ("stream_checkpoint_p50_ms", Json.Num s.stream_checkpoint_p50_ms);
      ("checkpoint_overhead_frac", Json.Num s.checkpoint_overhead_frac);
      ("resume_ms", Json.Num s.resume_ms);
      ("serve_p50_ms", Json.Num s.serve_p50_ms);
      ("serve_p95_ms", Json.Num s.serve_p95_ms);
      ("serve_mt_p50_ms", Json.Num s.serve_mt_p50_ms);
      ("serve_mt_rps", Json.Num s.serve_mt_rps);
    ]

let to_json r =
  Json.Obj
    [
      ("schema", Json.Str "wet-bench/1");
      ("label", Json.Str r.label);
      ("quick", Json.Bool r.quick);
      ("repeat", Json.Num (float_of_int r.repeat));
      ("warmup", Json.Num (float_of_int r.warmup));
      ("samples", Json.Arr (List.map sample_json r.samples));
    ]

let ( let* ) o f = match o with Some x -> f x | None -> Error "missing field"

let sample_of_json j =
  let num k = Option.bind (Json.member k j) Json.to_num in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let* workload = Option.bind (Json.member "workload" j) Json.to_str in
  let* scale = int "scale" in
  let* stmts = int "stmts" in
  let* stmts_per_sec = num "stmts_per_sec" in
  let* bytes_per_label_t1 = num "bytes_per_label_t1" in
  let* bytes_per_label_t2 = num "bytes_per_label_t2" in
  let* ratio_t1 = num "ratio_t1" in
  let* ratio_t2 = num "ratio_t2" in
  let* build_p50_ms = num "build_p50_ms" in
  let* build_p95_ms = num "build_p95_ms" in
  let* query_p50_ms = num "query_p50_ms" in
  let* query_p95_ms = num "query_p95_ms" in
  let* query_switches = int "query_switches" in
  (* Memory fields arrived with the streaming build; default 0 so files
     from before them still load (0 never anchors a regression). *)
  let opt_int k = Option.value (int k) ~default:0 in
  let build_peak_words = opt_int "build_peak_words" in
  let wet_words = opt_int "wet_words" in
  let shards = opt_int "shards" in
  (* Reporter-overhead pair arrived with the live pulse; same rule. *)
  let opt_num k = Option.value (num k) ~default:0. in
  let stream_p50_ms = opt_num "stream_p50_ms" in
  let stream_progress_p50_ms = opt_num "stream_progress_p50_ms" in
  (* Per-query cost columns arrived with wet_qprof; same rule. *)
  let query_decode_steps = opt_int "query_decode_steps" in
  let query_bits_touched = opt_int "query_bits_touched" in
  let qlog_overhead_frac = opt_num "qlog_overhead_frac" in
  (* Durable-build columns arrived with the checkpoint journal; same
     rule. *)
  let stream_checkpoint_p50_ms = opt_num "stream_checkpoint_p50_ms" in
  let checkpoint_overhead_frac = opt_num "checkpoint_overhead_frac" in
  let resume_ms = opt_num "resume_ms" in
  (* Serve columns arrived with wet_serve; same rule. *)
  let serve_p50_ms = opt_num "serve_p50_ms" in
  let serve_p95_ms = opt_num "serve_p95_ms" in
  (* Concurrent-serve columns arrived with session cursors; same rule. *)
  let serve_mt_p50_ms = opt_num "serve_mt_p50_ms" in
  let serve_mt_rps = opt_num "serve_mt_rps" in
  Ok
    {
      workload;
      scale;
      stmts;
      stmts_per_sec;
      bytes_per_label_t1;
      bytes_per_label_t2;
      ratio_t1;
      ratio_t2;
      build_p50_ms;
      build_p95_ms;
      query_p50_ms;
      query_p95_ms;
      query_switches;
      build_peak_words;
      wet_words;
      shards;
      stream_p50_ms;
      stream_progress_p50_ms;
      query_decode_steps;
      query_bits_touched;
      qlog_overhead_frac;
      stream_checkpoint_p50_ms;
      checkpoint_overhead_frac;
      resume_ms;
      serve_p50_ms;
      serve_p95_ms;
      serve_mt_p50_ms;
      serve_mt_rps;
    }

let of_json j =
  match Json.member "schema" j with
  | Some (Json.Str "wet-bench/1") ->
    let* label = Option.bind (Json.member "label" j) Json.to_str in
    let* quick =
      match Json.member "quick" j with Some (Json.Bool b) -> Some b | _ -> None
    in
    let* repeat = Option.bind (Json.member "repeat" j) Json.to_int in
    let* warmup = Option.bind (Json.member "warmup" j) Json.to_int in
    let* samples = Option.bind (Json.member "samples" j) Json.to_list in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | s :: rest -> (
        match sample_of_json s with
        | Ok s -> go (s :: acc) rest
        | Error e -> Error e)
    in
    (match go [] samples with
     | Ok samples -> Ok { label; quick; repeat; warmup; samples }
     | Error e -> Error e)
  | _ -> Error "not a wet-bench/1 document"

let save r path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json r));
      output_char oc '\n')

let load path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.parse s with
  | Error e -> Error (Printf.sprintf "%s: bad JSON: %s" path e)
  | Ok j -> (
    match of_json j with
    | Ok r -> Ok r
    | Error e -> Error (Printf.sprintf "%s: %s" path e))

(* ---------------- regression gate ---------------- *)

type thresholds = { wall_frac : float; size_frac : float }

let default_thresholds = { wall_frac = 0.25; size_frac = 0.02 }

type verdict = {
  v_workload : string;
  v_metric : string;
  v_prev : float;
  v_cur : float;
  v_worse_frac : float;
  v_threshold : float;
  v_regressed : bool;
}

(* Signed "how much worse" fraction. Positive = regressed. A zero or
   negative previous value cannot anchor a relative comparison, so it
   never regresses (fresh metrics slide in silently). *)
let worse_frac ~higher_is_better ~prev ~cur =
  if prev <= 0. then 0.
  else if higher_is_better then (prev -. cur) /. prev
  else (cur -. prev) /. prev

(* Metric table: name, extractor, direction, which threshold gates it.
   Wall-clock numbers are noisy (hence the loose default and p50s only);
   size and step metrics are deterministic, so they gate tightly. *)
let metrics =
  [
    ("stmts_per_sec", (fun s -> s.stmts_per_sec), true, `Wall);
    ("build_p50_ms", (fun s -> s.build_p50_ms), false, `Wall);
    ("query_p50_ms", (fun s -> s.query_p50_ms), false, `Wall);
    ("bytes_per_label_t1", (fun s -> s.bytes_per_label_t1), false, `Size);
    ("bytes_per_label_t2", (fun s -> s.bytes_per_label_t2), false, `Size);
    ("ratio_t1", (fun s -> s.ratio_t1), true, `Size);
    ("ratio_t2", (fun s -> s.ratio_t2), true, `Size);
    (* The resident WET, the sweep's direction switches and the shard
       count are as deterministic as the sizes, so they gate as tightly;
       a zero (a file from before the column) never regresses. *)
    ("wet_words", (fun s -> float_of_int s.wet_words), false, `Size);
    ("query_switches", (fun s -> float_of_int s.query_switches), false,
     `Size);
    ("shards", (fun s -> float_of_int s.shards), false, `Size);
    (* GC live-word peaks jitter with collector scheduling, so they gate
       at the loose wall threshold; a zero (pre-streaming baseline or
       untracked run) never regresses. *)
    ("build_peak_words", (fun s -> float_of_int s.build_peak_words), false,
     `Wall);
    (* The fused streaming build, observability off and with a live
       reporter armed. Both wall-noisy; both zero in pre-pulse files. *)
    ("stream_p50_ms", (fun s -> s.stream_p50_ms), false, `Wall);
    ("stream_progress_p50_ms", (fun s -> s.stream_progress_p50_ms), false,
     `Wall);
    (* Per-query decode work is deterministic (same sweep, same cursor
       history every run), so it gates tightly; the qlog overhead
       fraction is a ratio of two small walls — far too noisy to gate,
       it is recorded for the table only. *)
    ("query_decode_steps", (fun s -> float_of_int s.query_decode_steps),
     false, `Size);
    ("query_bits_touched", (fun s -> float_of_int s.query_bits_touched),
     false, `Size);
    (* The checkpointed streaming build: per-shard snapshot + fsync'd
       journal append on top of stream_p50_ms. Gating this wall number
       is the "journal overhead stays bounded" guarantee; the overhead
       fraction and the resume wall are ratios/one-shots far too noisy
       to gate, recorded for the table only. *)
    ("stream_checkpoint_p50_ms", (fun s -> s.stream_checkpoint_p50_ms),
     false, `Wall);
    (* Serve round trips are socket I/O + dispatch over a hot cache —
       wall-noisy, so the p50 gates loosely and the p95 is recorded for
       the table only (0 = pre-serve file never regresses). *)
    ("serve_p50_ms", (fun s -> s.serve_p50_ms), false, `Wall);
    (* Concurrent serve: per-request p50 across 4 client threads, and
       the aggregate requests/sec of the whole burst (higher is
       better). Both socket-and-scheduler noisy, so they gate at the
       wall threshold; 0 = pre-session file never regresses. *)
    ("serve_mt_p50_ms", (fun s -> s.serve_mt_p50_ms), false, `Wall);
    ("serve_mt_rps", (fun s -> s.serve_mt_rps), true, `Wall);
  ]

let check th ~prev ~cur =
  List.concat_map
    (fun (c : sample) ->
      match
        List.find_opt (fun (p : sample) -> p.workload = c.workload) prev.samples
      with
      | None -> []  (* new workload: nothing to compare against *)
      | Some p ->
        List.map
          (fun (name, get, higher_is_better, kind) ->
            let threshold =
              match kind with `Wall -> th.wall_frac | `Size -> th.size_frac
            in
            let wf = worse_frac ~higher_is_better ~prev:(get p) ~cur:(get c) in
            {
              v_workload = c.workload;
              v_metric = name;
              v_prev = get p;
              v_cur = get c;
              v_worse_frac = wf;
              v_threshold = threshold;
              (* Strictly greater: landing exactly on the threshold is
                 within tolerance. *)
              v_regressed = wf > threshold;
            })
          metrics)
    cur.samples

let regressed verdicts = List.exists (fun v -> v.v_regressed) verdicts
