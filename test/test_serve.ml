(* wet_serve: wire-protocol totality (QCheck round trips plus hostile
   lines), the resident-container LRU, top's histogram quantiles, and
   end-to-end metric consistency against a live daemon answering
   concurrent clients. *)

module P = Wet_serve.Protocol
module Cache = Wet_serve.Cache
module Server = Wet_serve.Server
module Client = Wet_serve.Client
module Render = Wet_serve.Render
module Top = Wet_serve.Top
module Builder = Wet_core.Builder
module Store = Wet_core.Store
module Interp = Wet_interp.Interp
module Qlog = Wet_qprof.Qlog
module Json = Wet_insight.Json

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let program_src =
  {|
global arr[8];
fn fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fn main() {
  var i = 0;
  while (i < 8) { arr[i] = fib(i); i = i + 1; }
  var j = 0;
  while (j < 8) { print(arr[j]); j = j + 1; }
}
|}

let wets =
  lazy
    (let prog = Wet_minic.Frontend.compile_exn program_src in
     let w1 = Builder.run_streaming ~program:prog ~input:[||] () in
     (w1, Builder.pack w1))

let with_temp_dir f =
  let dir = Filename.temp_file "wet_serve_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Protocol round trips                                                *)
(* ------------------------------------------------------------------ *)

let gen_small_string = QCheck.Gen.(string_size ~gen:printable (int_range 0 12))

let gen_request =
  QCheck.Gen.(
    int_range 0 100_000 >>= fun id ->
    oneofl P.all_verbs >>= fun verb ->
    opt gen_small_string >>= fun wet ->
    list_size (int_range 0 4)
      (pair (string_size ~gen:printable (int_range 1 8)) gen_small_string)
    >>= fun params ->
    bool >>= fun analyze -> return (P.request ?wet ~params ~analyze ~id verb))

let request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request encode/decode round trip"
    (QCheck.make gen_request ~print:P.encode_request)
    (fun r ->
      match P.decode_request (P.encode_request r) with
      | Ok r' -> r' = r
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m)

let gen_response =
  QCheck.Gen.(
    int_range 0 100_000 >>= fun id ->
    bool >>= fun ok ->
    opt gen_small_string >>= fun err ->
    list_size (int_range 0 6) gen_small_string >>= fun lines ->
    return
      {
        P.rs_id = id;
        rs_ok = ok;
        rs_error = err;
        rs_lines = lines;
        rs_data = Json.Obj [];
      })

let response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"response encode/decode round trip"
    (QCheck.make gen_response ~print:P.encode_response)
    (fun r ->
      match P.decode_response (P.encode_response r) with
      | Ok r' -> r' = r
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m)

(* Lines also survive the characters the wire cares about: newlines,
   quotes and backslashes must be escaped into the one-line frame. *)
let test_encode_escapes () =
  let r =
    P.request ~wet:"a\nb\"c\\d" ~params:[ ("k\n", "v\t") ] ~id:7 P.Trace
  in
  let line = P.encode_request r in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match P.decode_request line with
  | Ok r' -> Alcotest.(check bool) "escaped round trip" true (r = r')
  | Error m -> Alcotest.failf "decode failed: %s" m

(* ------------------------------------------------------------------ *)
(* Hostile input: decoding is total                                    *)
(* ------------------------------------------------------------------ *)

let check_error what line expect =
  match P.decode_request line with
  | Ok _ -> Alcotest.failf "%s: decoded a bad line" what
  | Error m ->
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      n = 0 || go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions %S (got %S)" what expect m)
      true (contains m expect)

let test_hostile_lines () =
  check_error "unknown verb" {|{"id":1,"verb":"frobnicate"}|} "frobnicate";
  check_error "truncated line" {|{"id":3,"verb":"op|} "truncated or malformed";
  check_error "empty line" "" "truncated or malformed";
  check_error "non-object" "42" "must be a JSON object";
  check_error "missing verb" {|{"id":1}|} "verb";
  check_error "missing id" {|{"verb":"open"}|} "id";
  check_error "non-string param"
    {|{"id":1,"verb":"trace","params":{"limit":5}}|}
    "must be a string";
  check_error "non-bool analyze"
    {|{"id":1,"verb":"trace","analyze":"yes"}|}
    "must be a boolean";
  (match P.decode_response {|{"ok":true|} with
   | Ok _ -> Alcotest.fail "decoded a truncated response"
   | Error _ -> ());
  let e = P.error_response ~id:4 "boom" in
  Alcotest.(check bool) "error response not ok" false e.P.rs_ok;
  Alcotest.(check (option string)) "error message" (Some "boom") e.P.rs_error

(* ------------------------------------------------------------------ *)
(* LRU cache                                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  with_temp_dir @@ fun dir ->
  let w1, w2 = Lazy.force wets in
  let a = Filename.concat dir "a.wet" in
  let b = Filename.concat dir "b.wet" in
  let c = Filename.concat dir "c.wet" in
  Store.save w1 a;
  Store.save w2 b;
  Store.save w1 c;
  let cache = Cache.create ~capacity:2 () in
  let find p =
    match Cache.find cache p with
    | Ok e -> e
    | Error m -> Alcotest.failf "find %s: %s" p m
  in
  let resident () = List.map (fun e -> e.Cache.e_path) (Cache.resident cache) in
  Alcotest.(check (list string)) "sound container has no damage" []
    (find a).Cache.e_damage;
  ignore (find b);
  ignore (find a);
  Alcotest.(check (list string)) "MRU first after a hit" [ a; b ]
    (resident ());
  ignore (find c);
  Alcotest.(check (list string)) "LRU (b) evicted" [ c; a ] (resident ());
  ignore (find b);
  Alcotest.(check (list string)) "a evicted in turn" [ b; c ] (resident ());
  let hits, misses, evictions = Cache.stats cache in
  Alcotest.(check (triple int int int)) "hit/miss/eviction tallies"
    (1, 4, 2) (hits, misses, evictions);
  (* failed loads never enter the cache or change residency *)
  (match Cache.find cache (Filename.concat dir "missing.wet") with
   | Ok _ -> Alcotest.fail "loaded a missing container"
   | Error _ -> ());
  (match Cache.find cache "/etc/hostname" with
   | Ok _ -> Alcotest.fail "loaded a non-.wet path"
   | Error _ -> ());
  Alcotest.(check (list string)) "residency unchanged by failures"
    [ b; c ] (resident ());
  Alcotest.(check bool) "peek does not touch the LRU order" true
    (Cache.peek cache c <> None);
  Alcotest.(check (list string)) "peek left order alone" [ b; c ]
    (resident ())

(* ------------------------------------------------------------------ *)
(* Top quantiles                                                       *)
(* ------------------------------------------------------------------ *)

let test_quantiles () =
  Alcotest.(check int) "empty histogram" 0
    (Top.quantile_of_buckets ~q:0.5 []);
  let buckets = [ (0, 1, 0); (1, 2, 5); (2, 4, 5) ] in
  Alcotest.(check int) "p50 lands in the middle bucket" 2
    (Top.quantile_of_buckets ~q:0.5 buckets);
  Alcotest.(check int) "p95 lands in the last bucket" 4
    (Top.quantile_of_buckets ~q:0.95 buckets)

(* ------------------------------------------------------------------ *)
(* Live daemon: concurrent clients reconcile with the metrics verb     *)
(* ------------------------------------------------------------------ *)

let connect socket =
  let rec go tries =
    match Client.connect socket with
    | Ok c -> c
    | Error e ->
      if tries = 0 then Alcotest.failf "connect %s: %s" socket e
      else begin
        Thread.delay 0.02;
        go (tries - 1)
      end
  in
  go 250

let roundtrip client req =
  match Client.request client req with
  | Ok r when r.P.rs_ok -> r
  | Ok r ->
    Alcotest.failf "request %d failed: %s" req.P.rq_id
      (Option.value r.P.rs_error ~default:"unknown error")
  | Error e -> Alcotest.failf "request %d: %s" req.P.rq_id e

let counters_of_lines lines =
  List.filter_map
    (fun line ->
      match Json.parse line with
      | Error _ -> None
      | Ok o -> (
        match
          ( Option.bind (Json.member "type" o) Json.to_str,
            Option.bind (Json.member "name" o) Json.to_str,
            Option.bind (Json.member "value" o) Json.to_int )
        with
        | Some "counter", Some n, Some v -> Some (n, v)
        | _ -> None))
    lines

let test_daemon_concurrent () =
  with_temp_dir @@ fun dir ->
  let w1, _ = Lazy.force wets in
  let wet_path = Filename.concat dir "fib.wet" in
  Store.save w1 wet_path;
  let socket = Filename.concat dir "serve.sock" in
  let qlog = Filename.concat dir "access.qlog.jsonl" in
  let daemon =
    Thread.create Server.run
      {
        Server.socket;
        cache_capacity = 2;
        qlog = Some qlog;
        ring_capacity = 64;
        (* force the domain-per-connection path even on small machines
           so the parallel dispatch is covered, with one client left on
           the thread fallback *)
        domains = 3;
      }
  in
  let clients = 4 and per_client = 6 in
  let errors = Atomic.make 0 in
  let worker i () =
    try
      let c = connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for j = 1 to per_client do
            ignore
              (roundtrip c
                 (P.request ~wet:wet_path ~id:((i * 100) + j) P.Open))
          done)
    with _ -> Atomic.incr errors
  in
  let ths = List.init clients (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join ths;
  Alcotest.(check int) "no client errors" 0 (Atomic.get errors);
  let c = connect socket in
  (* remote trace output is byte-identical to the local renderer on a
     fresh load of the same container *)
  let remote =
    (roundtrip c
       (P.request ~wet:wet_path
          ~params:[ ("kind", "cf"); ("limit", "8") ]
          ~id:1 P.Trace))
      .P.rs_lines
  in
  let local =
    Render.trace
      (Wet_core.Wet.open_session (Store.load wet_path))
      ~kind:Render.Cf ~limit:8
  in
  Alcotest.(check (list string)) "remote trace = local render" local remote;
  (* every per-connection request count survives into the merged
     metrics snapshot, even for already-closed connections *)
  let metrics = roundtrip c (P.request ~id:2 P.Metrics) in
  let counters = counters_of_lines metrics.P.rs_lines in
  let counter name = Option.value (List.assoc_opt name counters) ~default:0 in
  Alcotest.(check int) "opens reconcile across connections"
    (clients * per_client)
    (counter "serve.requests.open");
  Alcotest.(check int) "the trace request is counted" 1
    (counter "serve.requests.trace");
  Alcotest.(check bool) "bytes flowed" true (counter "serve.bytes_in" > 0);
  let health = roundtrip c (P.request ~id:3 P.Health) in
  let requests_total =
    Option.value
      (Option.bind (Json.member "requests_total" health.P.rs_data) Json.to_int)
      ~default:(-1)
  in
  Alcotest.(check bool) "health counts every dispatched request" true
    (requests_total >= (clients * per_client) + 2);
  let shutdown = roundtrip c (P.request ~id:4 P.Shutdown) in
  Alcotest.(check (list string)) "shutdown acknowledged"
    [ "shutting down" ] shutdown.P.rs_lines;
  Client.close c;
  Thread.join daemon;
  Alcotest.(check bool) "socket unlinked after shutdown" false
    (Sys.file_exists socket);
  (* the access log is parseable wet-qlog/1 with the daemon's shapes *)
  match Qlog.load qlog with
  | Error m -> Alcotest.failf "access qlog: %s" m
  | Ok entries ->
    Alcotest.(check int) "one qlog line per request"
      ((clients * per_client) + 4)
      (List.length entries);
    let shapes =
      List.sort_uniq compare (List.map (fun e -> e.Qlog.e_shape) entries)
    in
    List.iter
      (fun s ->
        Alcotest.(check bool) (s ^ " shape logged") true
          (List.mem s shapes))
      [ "serve/open"; "trace/cf"; "serve/metrics"; "serve/health";
        "serve/shutdown" ]

(* The daemon answers unknown verbs and truncated lines with structured
   errors and stays up for the next request on the same connection. *)
let test_daemon_hostile () =
  with_temp_dir @@ fun dir ->
  let socket = Filename.concat dir "serve.sock" in
  let daemon =
    Thread.create Server.run
      { (Server.default_config ~socket) with Server.ring_capacity = 16 }
  in
  let c = connect socket in
  let raw line =
    match Client.raw_request c line with
    | Ok r -> r
    | Error e -> Alcotest.failf "raw request: %s" e
  in
  let bad = raw {|{"id":9,"verb":"frobnicate"}|} in
  Alcotest.(check bool) "unknown verb is an error" false bad.P.rs_ok;
  let trunc = raw {|{"id":10,"verb":"op|} in
  Alcotest.(check bool) "truncated line is an error" false trunc.P.rs_ok;
  (* the connection survived both *)
  let h = roundtrip c (P.request ~id:11 P.Health) in
  Alcotest.(check bool) "daemon still healthy" true h.P.rs_ok;
  ignore (roundtrip c (P.request ~id:12 P.Shutdown));
  Client.close c;
  Thread.join daemon

(* Trace kinds are client-chosen strings; each distinct qprof shape
   gets its own latency histogram, so the daemon must fold every kind it
   rejects into one shape or a client can grow its metrics without
   bound. *)
let test_bogus_kinds_bounded () =
  with_temp_dir @@ fun dir ->
  let w1, _ = Lazy.force wets in
  let wet_path = Filename.concat dir "fib.wet" in
  Store.save w1 wet_path;
  let socket = Filename.concat dir "serve.sock" in
  let daemon =
    Thread.create Server.run
      { (Server.default_config ~socket) with Server.ring_capacity = 16 }
  in
  let c = connect socket in
  let metrics id = (roundtrip c (P.request ~id P.Metrics)).P.rs_lines in
  (* the first metrics request registers its own latency series *)
  ignore (metrics 1);
  let before = List.length (metrics 2) in
  for i = 1 to 300 do
    match
      Client.request c
        (P.request ~wet:wet_path
           ~params:[ ("kind", Printf.sprintf "bogus-%d" i) ]
           ~id:(100 + i) P.Trace)
    with
    | Ok r -> Alcotest.(check bool) "a bogus kind is an error" false r.P.rs_ok
    | Error e -> Alcotest.failf "bogus trace request %d: %s" i e
  done;
  let after = metrics 3 in
  Alcotest.(check bool)
    (Printf.sprintf "300 bogus kinds add at most one series (%d -> %d)"
       before (List.length after))
    true
    (List.length after - before <= 1);
  Alcotest.(check bool) "they share the trace/invalid shape" true
    (List.exists
       (fun l ->
         match Json.parse l with
         | Ok o ->
           Option.bind (Json.member "name" o) Json.to_str
           = Some "qprof.latency.trace/invalid"
         | Error _ -> false)
       after);
  ignore (roundtrip c (P.request ~id:4 P.Shutdown));
  Client.close c;
  Thread.join daemon

(* Request spans have one home, the daemon's ring: the sink's export
   buffer, which nothing in a daemon reads, keeps none of them however
   many requests arrive, the [watch] verb replays the last ones oldest
   first, and [health] accounts for every span that fell out. *)
let test_spans_live_in_the_ring () =
  with_temp_dir @@ fun dir ->
  let w1, _ = Lazy.force wets in
  let wet_path = Filename.concat dir "fib.wet" in
  Store.save w1 wet_path;
  let socket = Filename.concat dir "serve.sock" in
  let capacity = 16 in
  let daemon =
    Thread.create Server.run
      { (Server.default_config ~socket) with Server.ring_capacity = capacity }
  in
  let c = connect socket in
  let verb i = if i mod 2 = 1 then P.Paths else P.Health in
  for i = 1 to 300 do
    ignore
      (roundtrip c
         (match verb i with
          | P.Paths ->
            P.request ~wet:wet_path ~params:[ ("top", "1") ] ~id:i P.Paths
          | v -> P.request ~id:i v))
  done;
  let serve_spans =
    List.filter
      (fun (e : Wet_obs.Sink.event) ->
        String.starts_with ~prefix:"serve." e.Wet_obs.Sink.ev_name)
      (Wet_obs.Sink.events ())
  in
  Alcotest.(check int) "the export buffer holds no request span" 0
    (List.length serve_spans);
  let int_of key j =
    match Option.bind (Json.member key j) Json.to_int with
    | Some v -> v
    | None -> Alcotest.failf "missing integer %S" key
  in
  let watch =
    roundtrip c (P.request ~params:[ ("last", "4") ] ~id:301 P.Watch)
  in
  let entries =
    match Option.bind (Json.member "entries" watch.P.rs_data) Json.to_list with
    | Some es -> es
    | None -> Alcotest.fail "watch answered no entries"
  in
  let field key e =
    Option.value (Option.bind (Json.member key e) Json.to_str) ~default:""
  in
  Alcotest.(check (list string)) "four span entries" [ "span"; "span"; "span"; "span" ]
    (List.map (field "type") entries);
  Alcotest.(check (list string)) "the last four requests, oldest first"
    (List.map (fun i -> "serve." ^ P.verb_name (verb i)) [ 297; 298; 299; 300 ])
    (List.map (field "name") entries);
  let health = roundtrip c (P.request ~id:302 P.Health) in
  let ring =
    match Json.member "ring" health.P.rs_data with
    | Some r -> r
    | None -> Alcotest.fail "health has no ring object"
  in
  let pushed = int_of "pushed" ring in
  Alcotest.(check bool) "every request pushed a span" true (pushed >= 301);
  Alcotest.(check int) "dropped = pushed - capacity" (pushed - capacity)
    (int_of "dropped" ring);
  Alcotest.(check int) "retained = capacity" capacity (int_of "retained" ring);
  ignore (roundtrip c (P.request ~id:303 P.Shutdown));
  Client.close c;
  Thread.join daemon

(* ------------------------------------------------------------------ *)
(* Render: formatting only the rows a trace returns                   *)
(* ------------------------------------------------------------------ *)

module Spec = Wet_workloads.Spec
module Query = Wet_core.Query
module Telemetry = Wet_bistream.Telemetry
module W = Wet_core.Wet

(* Every bundled program at a 64th of its timing scale, on both tiers. *)
let bundled =
  lazy
    (List.concat_map
       (fun (spec : Spec.t) ->
         let scale = max 1 (spec.Spec.timing_scale / 64) in
         let w1 =
           Builder.run_streaming ~program:(Spec.compile spec)
             ~input:(Spec.input spec ~scale) ()
         in
         [
           (spec.Spec.name ^ " tier1", w1);
           (spec.Spec.name ^ " tier2", Builder.pack w1);
         ])
       Spec.all)

let kinds =
  [
    ("cf", Render.Cf);
    ("values", Render.Values);
    ("addresses", Render.Addresses);
  ]

(* The query a trace render wraps, with [f] seeing each row's fields. *)
let bare_query s kind ~f =
  match kind with
  | Render.Cf ->
    Query.Session.park s Query.Forward;
    Query.Session.control_flow s Query.Forward ~f
  | Render.Values -> Query.Session.load_values s ~f
  | Render.Addresses -> Query.Session.addresses s ~f

(* Every row and the total line, formatted independently of the
   renderer, and the number of rows. *)
let reference_rows wet kind =
  let s = W.open_session wet and rows = ref [] in
  let stmt c = wet.W.copy_stmt.(c) in
  let n =
    bare_query s kind ~f:(fun x y ->
        rows :=
          (match kind with
           | Render.Cf -> Printf.sprintf "f%d:B%d" x y
           | Render.Values ->
             Printf.sprintf "load copy %d (stmt %d): %d" x (stmt x) y
           | Render.Addresses ->
             Printf.sprintf "mem copy %d (stmt %d): @%d" x (stmt x) y)
          :: !rows)
  in
  let total_line =
    match kind with
    | Render.Cf -> Printf.sprintf "... (%d block executions total)" n
    | Render.Values -> Printf.sprintf "... (%d load values total)" n
    | Render.Addresses -> Printf.sprintf "... (%d addresses total)" n
  in
  (List.rev !rows, total_line, n)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* For every program, tier and kind, a trace render is the first
   [min limit total] rows of the whole walk plus its total line, and
   formatting moves no cursor: on two sessions taken through the same
   requests, each render costs its session's tally exactly what the
   bare query costs the other's. *)
let test_trace_renders_a_prefix () =
  List.iter
    (fun (name, wet) ->
      let rendered = W.open_session wet and bare = W.open_session wet in
      let cost s f =
        let tally = W.Session.tally s in
        let before = Telemetry.snapshot ~tally () in
        let x = f () in
        (x, Telemetry.delta ~before ~after:(Telemetry.snapshot ~tally ()))
      in
      List.iter
        (fun (kname, kind) ->
          let rows, total_line, total = reference_rows wet kind in
          List.iter
            (fun limit ->
              let what =
                Printf.sprintf "%s trace %s --limit %d" name kname limit
              in
              let lines, r =
                cost rendered (fun () -> Render.trace rendered ~kind ~limit)
              in
              let _, b =
                cost bare (fun () -> bare_query bare kind ~f:(fun _ _ -> ()))
              in
              Alcotest.(check (list string)) what
                (take (min limit total) rows @ [ total_line ])
                lines;
              Alcotest.(check bool) (what ^ ": the bare query's tally delta")
                true (r = b))
            [ 0; 1; 16; 50; total; total + 1 ])
        kinds)
    (Lazy.force bundled)

(* ------------------------------------------------------------------ *)
(* Repeated requests                                                   *)
(* ------------------------------------------------------------------ *)

module Qprof = Wet_qprof.Qprof
module Ex = Wet_watch.Explain

(* A request repeated on one session costs what the first did: the
   control-flow walk's return to parked cursors decodes nothing, so
   every trace cf pays one timestamp step per path execution, in the
   session's tally and in its profile's ts rows alike. Repeated value
   and address traces return the first request's rows, which are a
   fresh session's. *)
let test_repeat_costs_the_first () =
  List.iter
    (fun (name, wet) ->
      if String.ends_with ~suffix:"tier2" name then begin
        let s = W.open_session wet in
        let scope =
          Qprof.make_scope ~tally:(W.Session.tally s)
            ~recorder:(W.Session.recorder s) ()
        in
        let execs = wet.W.stats.W.path_execs in
        for i = 1 to 3 do
          let _, p =
            Qprof.run ~scope "trace/cf" (fun () ->
                Render.trace s ~kind:Render.Cf ~limit:16)
          in
          let ts =
            List.fold_left
              (fun acc (st : Ex.stream_stats) ->
                if Ex.stream_kind st.Ex.e_stream = "ts" then acc + Ex.steps st
                else acc)
              0 p.Qprof.p_streams
          in
          let what = Printf.sprintf "%s trace cf #%d" name i in
          Alcotest.(check int) (what ^ ": tally decode steps") execs
            (Qprof.decode_steps p.Qprof.p_total);
          Alcotest.(check int) (what ^ ": ts rows") execs ts
        done;
        List.iter
          (fun (kname, kind) ->
            let rows s = Render.trace s ~kind ~limit:max_int in
            let fresh = rows (W.open_session wet) in
            for i = 1 to 3 do
              Alcotest.(check (list string))
                (Printf.sprintf "%s trace %s #%d" name kname i)
                fresh (rows s)
            done)
          [ ("values", Render.Values); ("addresses", Render.Addresses) ]
      end)
    (Lazy.force bundled)

(* One connection sends trace (all three kinds), slice and at, each with
   analyze, over a tier-1 and a tier-2 container. The daemon's metrics
   verb then moves qprof.fwd_steps + qprof.bwd_steps by the sum of the
   answers' decode steps lines, and qprof.dir_switches by the sum of
   their direction switches lines, to the step: both are views of the
   connection's one ledger. *)
let test_metrics_reconcile_with_analyze () =
  with_temp_dir @@ fun dir ->
  let paths =
    List.filter_map
      (fun (name, wet) ->
        if String.starts_with ~prefix:"126.gcc" name then begin
          let path =
            Filename.concat dir
              (String.map (fun c -> if c = ' ' then '_' else c) name ^ ".wet")
          in
          Store.save wet path;
          Some path
        end
        else None)
      (Lazy.force bundled)
  in
  Alcotest.(check int) "a tier-1 and a tier-2 container" 2 (List.length paths);
  let socket = Filename.concat dir "serve.sock" in
  let daemon =
    Thread.create Server.run
      {
        Server.socket;
        cache_capacity = 2;
        qlog = None;
        ring_capacity = 64;
        domains = 1;
      }
  in
  let c = connect socket in
  let id = ref 0 in
  let ask ?(params = []) ?wet ?(analyze = false) verb =
    incr id;
    (roundtrip c (P.request ?wet ~params ~analyze ~id:!id verb)).P.rs_lines
  in
  let counters () = counters_of_lines (ask P.Metrics) in
  let figure prefix lines =
    List.fold_left
      (fun acc l ->
        if String.starts_with ~prefix l then
          match
            String.split_on_char ' '
              (String.sub l (String.length prefix)
                 (String.length l - String.length prefix))
            |> List.filter (( <> ) "")
          with
          | n :: _ -> acc + int_of_string n
          | [] -> acc
        else acc)
      0 lines
  in
  let before = counters () in
  let steps = ref 0 and switches = ref 0 in
  List.iter
    (fun wet ->
      List.iter
        (fun (verb, params) ->
          let lines = ask ~wet ~params ~analyze:true verb in
          steps := !steps + figure "decode steps" lines;
          switches := !switches + figure "direction switches" lines)
        [
          (P.Trace, [ ("kind", "cf") ]);
          (P.Trace, [ ("kind", "values") ]);
          (P.Trace, [ ("kind", "addresses") ]);
          (P.Slice, []);
          (P.At, []);
          (P.Trace, [ ("kind", "values") ]);
        ])
    paths;
  let after = counters () in
  let moved name =
    Option.value (List.assoc_opt name after) ~default:0
    - Option.value (List.assoc_opt name before) ~default:0
  in
  Alcotest.(check bool) "the answers paid some steps" true (!steps > 0);
  Alcotest.(check int) "qprof fwd + bwd = the decode steps lines" !steps
    (moved "qprof.fwd_steps" + moved "qprof.bwd_steps");
  Alcotest.(check int) "qprof switches = the direction switches lines"
    !switches
    (moved "qprof.dir_switches");
  ignore (ask P.Shutdown);
  Client.close c;
  Thread.join daemon

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest request_roundtrip;
          QCheck_alcotest.to_alcotest response_roundtrip;
          Alcotest.test_case "wire escaping" `Quick test_encode_escapes;
          Alcotest.test_case "hostile lines" `Quick test_hostile_lines;
        ] );
      ( "cache",
        [ Alcotest.test_case "LRU eviction" `Quick test_cache_lru ] );
      ( "top",
        [ Alcotest.test_case "histogram quantiles" `Quick test_quantiles ] );
      ( "daemon",
        [
          Alcotest.test_case "metrics reconcile with analyze answers" `Quick
            test_metrics_reconcile_with_analyze;
          Alcotest.test_case "concurrent clients reconcile" `Quick
            test_daemon_concurrent;
          Alcotest.test_case "hostile clients" `Quick test_daemon_hostile;
          Alcotest.test_case "bogus trace kinds share one shape" `Quick
            test_bogus_kinds_bounded;
          Alcotest.test_case "request spans live only in the ring" `Quick
            test_spans_live_in_the_ring;
        ] );
      ( "render",
        [
          Alcotest.test_case "trace renders a prefix of its whole walk"
            `Quick test_trace_renders_a_prefix;
          Alcotest.test_case "a repeated query costs what the first did"
            `Quick test_repeat_costs_the_first;
        ] );
    ]
