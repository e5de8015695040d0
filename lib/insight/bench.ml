type sample = {
  workload : string;
  scale : int;
  stmts : int;
  bytes_per_label_t1 : float;
  bytes_per_label_t2 : float;
  ratio_t1 : float;
  ratio_t2 : float;
  wet_words : int;
  build_peak_words : int;
  shards : int;
  query_decode_steps : int;
  query_bits_touched : int;
  query_switches : int;
}

type run = { samples : sample list }

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

let schema = "wet-bench/2"

let sample_json s =
  let int n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("workload", Json.Str s.workload);
      ("scale", int s.scale);
      ("stmts", int s.stmts);
      ("bytes_per_label_t1", Json.Num s.bytes_per_label_t1);
      ("bytes_per_label_t2", Json.Num s.bytes_per_label_t2);
      ("ratio_t1", Json.Num s.ratio_t1);
      ("ratio_t2", Json.Num s.ratio_t2);
      ("wet_words", int s.wet_words);
      ("build_peak_words", int s.build_peak_words);
      ("shards", int s.shards);
      ("query_decode_steps", int s.query_decode_steps);
      ("query_bits_touched", int s.query_bits_touched);
      ("query_switches", int s.query_switches);
    ]

let to_json r =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("samples", Json.Arr (List.map sample_json r.samples));
    ]

let ( let* ) = Result.bind

let field conv k j =
  match Option.bind (Json.member k j) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing or ill-typed field %s" k)

let sample_of_json j =
  let num k = field Json.to_num k j and int k = field Json.to_int k j in
  let* workload = field Json.to_str "workload" j in
  let* scale = int "scale" in
  let* stmts = int "stmts" in
  let* bytes_per_label_t1 = num "bytes_per_label_t1" in
  let* bytes_per_label_t2 = num "bytes_per_label_t2" in
  let* ratio_t1 = num "ratio_t1" in
  let* ratio_t2 = num "ratio_t2" in
  let* wet_words = int "wet_words" in
  let* build_peak_words = int "build_peak_words" in
  let* shards = int "shards" in
  let* query_decode_steps = int "query_decode_steps" in
  let* query_bits_touched = int "query_bits_touched" in
  let* query_switches = int "query_switches" in
  Ok
    {
      workload;
      scale;
      stmts;
      bytes_per_label_t1;
      bytes_per_label_t2;
      ratio_t1;
      ratio_t2;
      wet_words;
      build_peak_words;
      shards;
      query_decode_steps;
      query_bits_touched;
      query_switches;
    }

let of_json j =
  match Json.member "schema" j with
  | Some (Json.Str s) when s = schema ->
    let* samples = field Json.to_list "samples" j in
    let* samples =
      List.fold_right
        (fun s acc ->
          let* acc = acc in
          let* s = sample_of_json s in
          Ok (s :: acc))
        samples (Ok [])
    in
    Ok { samples }
  | Some (Json.Str "wet-bench/1") ->
    Error
      "a wet-bench/1 document, written before the observatory dropped \
       its wall-clock columns; regenerate it with `bench/main.exe \
       observatory`"
  | _ -> Error ("not a " ^ schema ^ " document")

let save r path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json r));
      output_char oc '\n')

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
    match Json.parse s with
    | Error e -> Error (Printf.sprintf "%s: bad JSON: %s" path e)
    | Ok j -> (
      match of_json j with
      | Ok r -> Ok r
      | Error e -> Error (Printf.sprintf "%s: %s" path e)))

(* ---------------- regression gate ---------------- *)

let threshold = 0.02

type verdict = {
  v_workload : string;
  v_metric : string;
  v_prev : float;
  v_cur : float;
  v_worse_frac : float;
  v_regressed : bool;
}

(* Signed "how much worse" fraction. Positive = regressed. A zero or
   negative previous value cannot anchor a relative comparison, so it
   never regresses. *)
let worse_frac ~higher_is_better ~prev ~cur =
  if prev <= 0. then 0.
  else if higher_is_better then (prev -. cur) /. prev
  else (cur -. prev) /. prev

(* The gated columns: name, extractor, whether higher is better. Every
   one is deterministic — the same commit reads the same figure on every
   run — so one tight threshold gates them all. *)
let metrics =
  let int f s = float_of_int (f s) in
  [
    ("bytes_per_label_t1", (fun s -> s.bytes_per_label_t1), false);
    ("bytes_per_label_t2", (fun s -> s.bytes_per_label_t2), false);
    ("ratio_t1", (fun s -> s.ratio_t1), true);
    ("ratio_t2", (fun s -> s.ratio_t2), true);
    ("wet_words", int (fun s -> s.wet_words), false);
    ("build_peak_words", int (fun s -> s.build_peak_words), false);
    ("shards", int (fun s -> s.shards), false);
    ("query_decode_steps", int (fun s -> s.query_decode_steps), false);
    ("query_bits_touched", int (fun s -> s.query_bits_touched), false);
    ("query_switches", int (fun s -> s.query_switches), false);
  ]

let check ~prev ~cur =
  let pairs =
    List.filter_map
      (fun (c : sample) ->
        List.find_opt (fun (p : sample) -> p.workload = c.workload)
          prev.samples
        |> Option.map (fun p -> (p, c)))
      cur.samples
  in
  match List.find_opt (fun (p, c) -> p.scale <> c.scale) pairs with
  | Some (p, c) ->
    Error
      (Printf.sprintf
         "%s ran at scale %d in the baseline and at scale %d here; its \
          figures do not compare"
         c.workload p.scale c.scale)
  | None ->
    Ok
      (List.concat_map
         (fun (p, c) ->
           List.map
             (fun (name, get, higher_is_better) ->
               let wf =
                 worse_frac ~higher_is_better ~prev:(get p) ~cur:(get c)
               in
               {
                 v_workload = c.workload;
                 v_metric = name;
                 v_prev = get p;
                 v_cur = get c;
                 v_worse_frac = wf;
                 (* Strictly greater: landing exactly on the threshold
                    is within tolerance. *)
                 v_regressed = wf > threshold;
               })
             metrics)
         pairs)

let regressed verdicts = List.exists (fun v -> v.v_regressed) verdicts
