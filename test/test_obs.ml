(* Semantics of the wet_obs observability library: instrument registry,
   log-scale histograms, span nesting and exception safety, exporter
   output (parsed with the local JSON reader below — the repo carries no
   JSON dependency), and the interpreter's heartbeat count. *)

module Obs = Wet_obs.Metrics
module Sink = Wet_obs.Sink
module Span = Wet_obs.Span
module Export = Wet_obs.Export
module Spec = Wet_workloads.Spec
module Interp = Wet_interp.Interp

(* Arm the sink for the duration of [f], with zeroed instruments, and
   always disarm afterwards so tests cannot leak state. *)
let with_sink f =
  Sink.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Sink.disable ()) f

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader, just enough to validate exporter output.     *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad_json (Printf.sprintf "%s at offset %d" m !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit l v =
    let k = String.length l in
    if !pos + k <= n && String.sub s !pos k = l then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ l)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "truncated escape";
        (match s.[!pos] with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 >= n then fail "truncated \\u escape";
           let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
           pos := !pos + 4;
           if code < 0x80 then Buffer.add_char b (Char.chr code)
           else Buffer.add_string b (Printf.sprintf "<u%04x>" code)
         | c -> fail (Printf.sprintf "bad escape '%c'" c));
        incr pos;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail "expected a value";
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          members ((k, v) :: acc)
        | Some '}' ->
          incr pos;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members []
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Arr []
    end
    else
      let rec elems acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          elems (v :: acc)
        | Some ']' ->
          incr pos;
          Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      elems []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let str_mem k j =
  match mem k j with Some (Str s) -> Some s | _ -> None

let num_mem k j =
  match mem k j with Some (Num f) -> Some f | _ -> None

(* ------------------------------------------------------------------ *)
(* Registry and histogram semantics                                    *)
(* ------------------------------------------------------------------ *)

let test_disabled_mutations () =
  Sink.disable ();
  let c = Obs.counter "t.disabled.counter" in
  let g = Obs.gauge "t.disabled.gauge" in
  let h = Obs.histogram "t.disabled.hist" in
  Obs.add c 7;
  Obs.incr c;
  Obs.set g 42;
  Obs.observe h 9;
  Alcotest.(check int) "counter untouched" 0 (Obs.value c);
  Alcotest.(check int) "gauge untouched" 0 (Obs.gauge_value g);
  Alcotest.(check int) "time still runs f" 5 (Obs.time h (fun () -> 5))

let test_counter_gauge () =
  with_sink (fun () ->
      let c = Obs.counter "t.counter" in
      let g = Obs.gauge "t.gauge" in
      Obs.add c 3;
      Obs.incr c;
      Obs.set g 10;
      Obs.set g 4;
      Alcotest.(check int) "counter accumulates" 4 (Obs.value c);
      Alcotest.(check int) "gauge keeps last" 4 (Obs.gauge_value g);
      Alcotest.(check bool) "same name, same cell" true
        (Obs.value (Obs.counter "t.counter") = 4);
      let names = List.map fst (Obs.snapshot ()) in
      Alcotest.(check bool) "snapshot sorted by name" true
        (names = List.sort compare names))

let test_kind_mismatch () =
  let _ = Obs.counter "t.kind" in
  Alcotest.check_raises "re-interning as gauge rejected"
    (Wet_error.Error
       {
         Wet_error.stage = Wet_error.Obs;
         msg = "Wet_obs.Metrics: t.kind already registered as a counter";
       })
    (fun () -> ignore (Obs.gauge "t.kind"))

let test_bucket_of () =
  Alcotest.(check int) "non-positive in bucket 0" 0 (Obs.bucket_of 0);
  Alcotest.(check int) "negative in bucket 0" 0 (Obs.bucket_of (-17));
  Alcotest.(check int) "1 in bucket 1" 1 (Obs.bucket_of 1);
  for k = 1 to 40 do
    Alcotest.(check int)
      (Printf.sprintf "2^%d opens bucket %d" k (k + 1))
      (k + 1)
      (Obs.bucket_of (1 lsl k));
    Alcotest.(check int)
      (Printf.sprintf "2^%d - 1 closes bucket %d" k k)
      k
      (Obs.bucket_of ((1 lsl k) - 1))
  done

let test_histogram () =
  with_sink (fun () ->
      let h = Obs.histogram "t.hist" in
      List.iter (Obs.observe h) [ 1; 3; 3; 100; 0 ];
      match List.assoc "t.hist" (Obs.snapshot ()) with
      | Obs.Histogram s ->
        Alcotest.(check int) "count" 5 s.Obs.h_count;
        Alcotest.(check int) "sum" 107 s.Obs.h_sum;
        Alcotest.(check int) "min" 0 s.Obs.h_min;
        Alcotest.(check int) "max" 100 s.Obs.h_max;
        Alcotest.(check int) "bucket counts cover every sample" 5
          (List.fold_left (fun a (_, c) -> a + c) 0 s.Obs.h_buckets)
      | _ -> Alcotest.fail "t.hist is not a histogram")

let test_time_on_raise () =
  with_sink (fun () ->
      let h = Obs.histogram "t.hist_raise" in
      (try Obs.time h (fun () -> failwith "boom") with Failure _ -> ());
      match List.assoc "t.hist_raise" (Obs.snapshot ()) with
      | Obs.Histogram s ->
        Alcotest.(check int) "duration observed despite raise" 1 s.Obs.h_count
      | _ -> Alcotest.fail "t.hist_raise is not a histogram")

(* ------------------------------------------------------------------ *)
(* Span semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_sink (fun () ->
      let r =
        Span.with_ "outer" (fun () ->
            Span.set_attr "k" (Span.Int 7);
            Span.with_ "inner" (fun () -> Span.depth ()))
      in
      Alcotest.(check int) "two levels deep inside inner" 2 r;
      Alcotest.(check int) "stack unwound" 0 (Span.depth ());
      match Sink.events () with
      | [ inner; outer ] ->
        (* spans are recorded as they close: children precede parents *)
        Alcotest.(check string) "inner first" "inner" inner.Sink.ev_name;
        Alcotest.(check string) "outer second" "outer" outer.Sink.ev_name;
        Alcotest.(check int) "outer at depth 0" 0 outer.Sink.ev_depth;
        Alcotest.(check int) "inner at depth 1" 1 inner.Sink.ev_depth;
        let dur e = Option.get e.Sink.ev_dur_ns in
        Alcotest.(check bool) "inner nested in outer's extent" true
          (inner.Sink.ev_ts_ns >= outer.Sink.ev_ts_ns
          && dur inner <= dur outer);
        Alcotest.(check bool) "set_attr reached the open span" true
          (List.mem_assoc "k" outer.Sink.ev_attrs);
        Alcotest.(check bool) "alloc attributes attached" true
          (List.mem_assoc "alloc_minor_words" outer.Sink.ev_attrs)
      | evs ->
        Alcotest.fail (Printf.sprintf "expected 2 events, got %d"
                         (List.length evs)))

let test_span_on_raise () =
  with_sink (fun () ->
      (try Span.with_ "raising" (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "stack unwound after raise" 0 (Span.depth ());
      match Sink.events () with
      | [ e ] ->
        Alcotest.(check bool) "duration recorded" true
          (e.Sink.ev_dur_ns <> None);
        Alcotest.(check bool) "aborted span carries the raised attribute"
          true
          (List.assoc_opt "raised" e.Sink.ev_attrs = Some (Sink.Bool true))
      | evs ->
        Alcotest.fail
          (Printf.sprintf "expected 1 event, got %d" (List.length evs)))

let test_span_disabled () =
  Sink.disable ();
  (* the buffer is only cleared on [enable]; assert nothing is added *)
  let before = List.length (Sink.events ()) in
  let r = Span.with_ "ghost" (fun () -> 11) in
  Alcotest.(check int) "with_ is transparent when disabled" 11 r;
  Span.instant "ghost-instant";
  Alcotest.(check int) "nothing recorded" before
    (List.length (Sink.events ()))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_chrome_trace_valid () =
  with_sink (fun () ->
      Span.with_ "phase.a" (fun () ->
          Span.instant "tick" ~attrs:[ ("i", Span.Int 1) ];
          Span.with_ "phase.b" ~attrs:[ ("s", Span.Str "x\"y\\z") ]
            (fun () -> ()));
      let doc = parse_json (Export.chrome_trace ()) in
      Alcotest.(check (option string)) "schema version" (Some Export.schema)
        (str_mem "schema" doc);
      Alcotest.(check (option string)) "displayTimeUnit" (Some "ms")
        (str_mem "displayTimeUnit" doc);
      match mem "traceEvents" doc with
      | Some (Arr evs) ->
        Alcotest.(check int) "three events" 3 (List.length evs);
        List.iter
          (fun e ->
            Alcotest.(check bool) "has name" true (str_mem "name" e <> None);
            Alcotest.(check bool) "has ts" true (num_mem "ts" e <> None);
            match str_mem "ph" e with
            | Some "X" ->
              Alcotest.(check bool) "complete event has dur" true
                (num_mem "dur" e <> None)
            | Some "i" ->
              Alcotest.(check (option string)) "instant scope" (Some "t")
                (str_mem "s" e)
            | ph ->
              Alcotest.fail
                (Printf.sprintf "unexpected ph %s"
                   (Option.value ph ~default:"<none>")))
          evs
      | _ -> Alcotest.fail "traceEvents missing")

let test_metrics_jsonl_valid () =
  with_sink (fun () ->
      Obs.add (Obs.counter "t.jsonl.counter") 2;
      Obs.set (Obs.gauge "t.jsonl.gauge") 5;
      let h = Obs.histogram "t.jsonl.hist" in
      List.iter (Obs.observe h) [ 1; 2; 900 ];
      let lines =
        String.split_on_char '\n' (Export.metrics_jsonl ())
        |> List.filter (fun l -> l <> "")
      in
      let header, rest =
        match lines with
        | h :: rest -> (h, rest)
        | [] -> Alcotest.fail "empty export"
      in
      Alcotest.(check (option string)) "schema header line"
        (Some Export.schema)
        (str_mem "schema" (parse_json header));
      Alcotest.(check bool) "one line per instrument" true
        (List.length rest >= 3);
      let parsed = List.map parse_json rest in
      List.iter
        (fun j ->
          Alcotest.(check bool) "typed and named" true
            (str_mem "type" j <> None && str_mem "name" j <> None))
        parsed;
      let hist =
        List.find (fun j -> str_mem "name" j = Some "t.jsonl.hist") parsed
      in
      Alcotest.(check (option (float 0.))) "histogram count" (Some 3.)
        (num_mem "count" hist);
      match mem "buckets" hist with
      | Some (Arr bs) ->
        let total =
          List.fold_left
            (fun a b -> a +. Option.value (num_mem "count" b) ~default:0.)
            0. bs
        in
        Alcotest.(check (float 0.)) "bucket counts sum to count" 3. total
      | _ -> Alcotest.fail "histogram line lacks buckets")

(* ------------------------------------------------------------------ *)
(* Interpreter heartbeat                                               *)
(* ------------------------------------------------------------------ *)

(* The log's JSONL sink writes each line as one JSON object whose msg
   reads back exactly, whatever the message holds: a quote, a
   backslash, a newline and a control character among them. *)
let test_log_jsonl_escapes () =
  let module Log = Wet_obs.Log in
  let module Json = Wet_insight.Json in
  let path = Filename.temp_file "wet_log" ".jsonl" in
  let threshold = !Log.threshold and quiet = !Log.quiet in
  Fun.protect
    ~finally:(fun () ->
      Log.set_jsonl None;
      Log.threshold := threshold;
      Log.quiet := quiet;
      Sys.remove path)
    (fun () ->
      let msg = "say \"hi\" C:\\tmp\nnext\tline\x01\x1f end" in
      let oc = open_out_bin path in
      Log.threshold := Log.Info;
      Log.quiet := true;
      Log.set_jsonl (Some oc);
      Log.info "%s" msg;
      Log.set_jsonl None;
      close_out oc;
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      match lines with
      | [ line ] -> (
        match Json.parse line with
        | Error m -> Alcotest.failf "log line %S: %s" line m
        | Ok j ->
          Alcotest.(check (option string)) "level" (Some "info")
            (Option.bind (Json.member "level" j) Json.to_str);
          Alcotest.(check (option string)) "msg reads back unchanged"
            (Some msg)
            (Option.bind (Json.member "msg" j) Json.to_str))
      | _ -> Alcotest.failf "expected one log line, got %d" (List.length lines))

(* The heartbeat fires after every N-th completed statement, so a run of
   S statements beats exactly floor(S/N) times. *)
let test_heartbeat_count () =
  with_sink (fun () ->
      let n = 1000 in
      Sink.heartbeat_every := n;
      Fun.protect
        ~finally:(fun () -> Sink.heartbeat_every := 0)
        (fun () ->
          let w = Spec.find "parser" in
          let res = Spec.run ~scale:1 w in
          let beats =
            List.length
              (List.filter
                 (fun e -> e.Sink.ev_name = "interp.heartbeat")
                 (Sink.events ()))
          in
          Alcotest.(check int) "floor(statements/N) heartbeats"
            (res.Interp.stmts_executed / n)
            beats))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "disabled mutations are no-ops" `Quick
            test_disabled_mutations;
          Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_kind_mismatch;
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_of;
          Alcotest.test_case "histogram snapshot" `Quick test_histogram;
          Alcotest.test_case "time observes on raise" `Quick
            test_time_on_raise;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and attributes" `Quick
            test_span_nesting;
          Alcotest.test_case "closed on raise" `Quick test_span_on_raise;
          Alcotest.test_case "transparent when disabled" `Quick
            test_span_disabled;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace parses" `Quick
            test_chrome_trace_valid;
          Alcotest.test_case "metrics jsonl parses" `Quick
            test_metrics_jsonl_valid;
          Alcotest.test_case "log jsonl escapes read back" `Quick
            test_log_jsonl_escapes;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "heartbeat count" `Quick test_heartbeat_count;
        ] );
    ]
