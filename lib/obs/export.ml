(* ---------------- tiny JSON emission ---------------- *)

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_value b = function
  | Sink.Int i -> Buffer.add_string b (string_of_int i)
  | Sink.Float f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6g" f)
    else Buffer.add_string b "null"
  | Sink.Str s -> add_json_string b s
  | Sink.Bool x -> Buffer.add_string b (if x then "true" else "false")

let add_attrs b attrs =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_json_string b k;
      Buffer.add_char b ':';
      add_value b v)
    attrs;
  Buffer.add_char b '}'

(* ---------------- metrics dump ---------------- *)

let schema = "wet-obs/2"

let metrics_jsonl () =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "{\"schema\":%S}\n" schema);
  List.iter
    (fun (name, reading) ->
      (match reading with
       | Metrics.Counter v ->
         Buffer.add_string b "{\"type\":\"counter\",\"name\":";
         add_json_string b name;
         Buffer.add_string b (Printf.sprintf ",\"value\":%d}" v)
       | Metrics.Gauge v ->
         Buffer.add_string b "{\"type\":\"gauge\",\"name\":";
         add_json_string b name;
         Buffer.add_string b (Printf.sprintf ",\"value\":%d}" v)
       | Metrics.Histogram h ->
         Buffer.add_string b "{\"type\":\"histogram\",\"name\":";
         add_json_string b name;
         Buffer.add_string b
           (Printf.sprintf ",\"count\":%d,\"sum\":%d" h.Metrics.h_count
              h.Metrics.h_sum);
         if h.Metrics.h_count > 0 then
           Buffer.add_string b
             (Printf.sprintf ",\"min\":%d,\"max\":%d" h.Metrics.h_min
                h.Metrics.h_max);
         Buffer.add_string b ",\"buckets\":[";
         List.iteri
           (fun i (bk, n) ->
             if i > 0 then Buffer.add_char b ',';
             let lo = if bk = 0 then 0 else 1 lsl (bk - 1) in
             let hi = if bk = 0 then 1 else 1 lsl bk in
             Buffer.add_string b
               (Printf.sprintf "{\"lo\":%d,\"hi\":%d,\"count\":%d}" lo hi n))
           h.Metrics.h_buckets;
         Buffer.add_string b "]}");
      Buffer.add_char b '\n')
    (Metrics.snapshot ());
  Buffer.contents b

(* ---------------- Chrome trace events ---------------- *)

let chrome_trace () =
  let b = Buffer.create 4096 in
  let t0 = Sink.epoch_ns () in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":%S,\"displayTimeUnit\":\"ms\",\"traceEvents\":["
       schema);
  List.iteri
    (fun i (e : Sink.event) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      add_json_string b e.Sink.ev_name;
      Buffer.add_string b ",\"cat\":\"wet\",\"pid\":1,\"tid\":1";
      Buffer.add_string b
        (Printf.sprintf ",\"ts\":%.3f" (Clock.to_us (e.Sink.ev_ts_ns - t0)));
      (match e.Sink.ev_dur_ns with
       | Some d ->
         Buffer.add_string b
           (Printf.sprintf ",\"ph\":\"X\",\"dur\":%.3f" (Clock.to_us d))
       | None -> Buffer.add_string b ",\"ph\":\"i\",\"s\":\"t\"");
      Buffer.add_string b ",\"args\":";
      add_attrs b (("depth", Sink.Int e.Sink.ev_depth) :: e.Sink.ev_attrs);
      Buffer.add_char b '}')
    (Sink.events ());
  Buffer.add_string b "]}";
  Buffer.contents b

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_metrics_jsonl path = write_file path (metrics_jsonl ())

let write_chrome_trace path = write_file path (chrome_trace ())
