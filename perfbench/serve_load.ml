(* The serve workloads: a real [wet serve] daemon with its default
   settings, driven by closed-loop clients of this process over its
   Unix socket. [serve_scan] keeps four containers resident and sends
   whole-stream [trace] requests plus some [slice]s; [serve_cold] gives
   the daemon all nine, more than its four-slot cache holds, and sends
   point requests ([at], [paths]), so every visit to a container pays a
   load. *)

open Common
module P = Wet_serve.Protocol
module Client = Wet_serve.Client
module Render = Wet_serve.Render
module W = Wet_core.Wet
module Store = Wet_core.Store
module Query = Wet_core.Query
module Slice = Wet_core.Slice
module Qprof = Wet_qprof.Qprof
module Telemetry = Wet_bistream.Telemetry
module SR = Wet_analyses.State_reconstruct
module Explain = Wet_watch.Explain
module Cache = Wet_serve.Cache
module Span = Wet_obs.Span
module Sink = Wet_obs.Sink

type kind = Trace of Render.trace_kind | Slice_last | At of int | Paths

type request = { path : string; kind : kind }

(* The wire form a [wet trace/slice/at/paths --remote] sends. *)
let to_wire ~id r =
  let verb, params =
    match r.kind with
    | Trace k ->
      ( P.Trace,
        [
          ( "kind",
            match k with
            | Render.Cf -> "cf"
            | Render.Values -> "values"
            | Render.Addresses -> "addresses" );
          ("limit", "16");
        ] )
    | Slice_last -> (P.Slice, [])
    | At ts -> (P.At, [ ("ts", string_of_int ts) ])
    | Paths -> (P.Paths, [ ("top", "10") ])
  in
  P.request ~wet:r.path ~params ~id verb

(* The daemon's qprof shape for a request. *)
let shape r =
  match r.kind with
  | Trace Render.Cf -> "trace/cf"
  | Trace Render.Values -> "trace/values"
  | Trace Render.Addresses -> "trace/addresses"
  | Slice_last -> "slice/backward"
  | At _ -> "at"
  | Paths -> "paths"

(* The answer as the daemon renders it; [paths] reads the container
   and never opens a session. *)
let answer s wet r =
  match r.kind with
  | Trace k -> Render.trace (Lazy.force s) ~kind:k ~limit:16
  | Slice_last -> Render.slice (Lazy.force s) ~output:None
  | At ts -> Render.at (Lazy.force s) ~ts:(Some ts)
  | Paths -> Render.paths wet ~top:10

(* ---------------- workload shape ---------------- *)

let scan_names = [ "099.go"; "126.gcc"; "130.li"; "197.parser" ]

(* Deals [cards] in a fresh seeded order, pass after pass, so every run
   sends the same mix of requests and only their order is random. *)
let dealer st cards =
  let hand = ref [] in
  fun () ->
    if !hand = [] then hand := shuffle st cards;
    match !hand with
    | c :: rest ->
      hand := rest;
      c
    | [] -> invalid_arg "dealer: no cards"

(* The request pool, and a maker of seeded request streams (pool
   indexes), one per client. [serve_scan] deals from a deck holding, per
   container, cf, values and addresses traces five times each and one
   slice. [serve_cold] has both clients take turns on one cycle through
   all nine containers, in their fixed order, entered at a seeded point:
   a client takes the next container of the cycle and sends it a visit
   of sixteen requests, fifteen [at]s, each at one of 16 seeded timestamps,
   and one [paths], in dealt order. A container comes round again only
   after eight others, so with a four-slot cache every visit's first
   request misses, however the two clients interleave, and the fifteen
   hits after it let a run hold about 1000 requests or more. The order
   is fixed so that every seed keeps the same containers resident
   together, and so the daemon's peak memory. *)
let visit_length = 16

let pool cfg ~cold containers =
  let per (path, (w : W.t)) =
    if cold then
      let st = rng cfg.seed ("timestamps", Filename.basename path) in
      let n = w.W.stats.W.path_execs in
      (* one seeded timestamp in each sixteenth of the run, so the
         seed moves where the [at]s land but hardly what they cost *)
      List.init 16 (fun i ->
          let lo = i * n / 16 and hi = (i + 1) * n / 16 in
          { path; kind = At (1 + lo + Random.State.int st (max 1 (hi - lo))) })
      @ [ { path; kind = Paths } ]
    else
      List.map
        (fun kind -> { path; kind })
        [ Trace Render.Cf; Trace Render.Values; Trace Render.Addresses; Slice_last ]
  in
  let groups = List.length containers in
  let pool = Array.of_list (List.concat_map per containers) in
  let k = Array.length pool / groups in
  let first = Random.State.int (rng cfg.seed "visit-cycle") groups in
  let cycle = Array.init groups (fun i -> (first + i) mod groups)
  and turn = ref 0
  and lock = Mutex.create () in
  (* Once [closing] is set, at the end of the measured phase, a
     [serve_scan] stream ends; a [serve_cold] one ends with the cycle,
     each visit under way complete, so that every container is visited
     equally often. The slowest requests, the misses, then come from the
     containers in the same proportions in every run, and the p99 does
     not jump from one container's misses to another's with where the
     time ran out. *)
  let next_visit ~closing =
    Mutex.protect lock (fun () ->
        if Atomic.get closing && !turn mod groups = 0 then None
        else begin
          let g = cycle.(!turn mod groups) in
          incr turn;
          Some g
        end)
  in
  let stream ~closing st =
    if cold then begin
      let kind = dealer st (`Paths :: List.init (visit_length - 1) (fun _ -> `At)) in
      let g = ref 0 and left = ref 0 in
      fun () ->
        if !left = 0 then
          Option.iter
            (fun g' ->
              g := g';
              left := visit_length)
            (next_visit ~closing);
        if !left = 0 then None
        else begin
          decr left;
          match kind () with
          | `At -> Some ((!g * k) + Random.State.int st 16)
          | `Paths -> Some ((!g * k) + 16)
        end
    end
    else begin
      let deal =
        dealer st
          (List.concat
             (List.init groups (fun g ->
                  List.concat_map
                    (fun (i, copies) -> List.init copies (fun _ -> (g * k) + i))
                    [ (0, 5); (1, 5); (2, 5); (3, 1) ])))
      in
      fun () -> if Atomic.get closing then None else Some (deal ())
    end
  in
  (pool, stream)

(* ---------------- the daemon ---------------- *)

let live_daemons = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live_daemons := List.filter (( <> ) pid) !live_daemons

(* Kill whatever daemon an aborted run leaves behind. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live_daemons)

let spawn cfg ~socket =
  let log =
    Unix.openfile
      (Filename.concat cfg.dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cfg.wet_cli [| cfg.wet_cli; "serve"; socket |] null log log
  in
  Unix.close log;
  Unix.close null;
  live_daemons := pid :: !live_daemons;
  let deadline = now_ns () + 30_000_000_000 in
  let rec wait () =
    match Client.connect socket with
    | Ok c -> Client.close c
    | Error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith ("wet serve exited during start-up: " ^ e));
      if now_ns () > deadline then failwith ("wet serve did not start: " ^ e);
      Unix.sleepf 0.0005;
      wait ()
  in
  wait ();
  pid

let call ~socket verb =
  match Client.call ~socket (P.request ~id:0 verb) with
  | Ok r when r.P.rs_ok -> r
  | Ok r -> failwith (Option.value r.P.rs_error ~default:"daemon error")
  | Error e -> failwith e

let shutdown ~socket pid =
  (match Client.call ~socket (P.request ~id:0 P.Shutdown) with
   | Ok _ -> ()
   | Error _ -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
  reap pid

(* Daemon counters: cache (hits, misses, evictions) and the resident
   containers, least recently used first, from [health]; sessions
   opened from [metrics]. *)
type counters = {
  hits : float;
  misses : float;
  evictions : float;
  opened : float;
  resident : string list;
}

let counters ~socket =
  let health = (call ~socket P.Health).P.rs_data in
  let cache k =
    match Option.bind (Json.member "cache" health) (Json.member k) with
    | Some v -> Option.value (Json.to_num v) ~default:0.
    | None -> 0.
  in
  let resident =
    Option.value ~default:[] (Option.bind (Json.member "wets" health) Json.to_list)
    |> List.filter_map (fun e -> Option.bind (Json.member "path" e) Json.to_str)
    |> List.rev
  in
  let opened =
    List.fold_left
      (fun acc line ->
        match Json.parse line with
        | Ok j when Json.member "name" j = Some (Json.Str "serve.sessions.opened") ->
          Option.value ~default:acc (Option.bind (Json.member "value" j) Json.to_num)
        | _ -> acc)
      0.
      (call ~socket P.Metrics).P.rs_lines
  in
  { hits = cache "hits"; misses = cache "misses"; evictions = cache "evictions"; opened;
    resident }

(* ---------------- set-up ---------------- *)

type setup = {
  pid : int;
  containers : (string * int * int) list;  (** path, stmts, bytes *)
  build_busy : int;  (** CPU ns of the source-to-container builds *)
  recover_busy : int;  (** the daemon's CPU ns, spawn until every container was opened *)
  t0 : int;  (** when it began *)
  wall_ns : int;
}

(* Start a daemon and warm it by opening every container once: what it
   takes to get a lost daemon serving again, as the daemon's busy time
   (its process CPU clock, read once the last container is open). *)
let start cfg ~socket paths =
  let pid = spawn cfg ~socket in
  List.iter
    (fun path ->
      match Client.call ~socket (P.request ~wet:path ~id:0 P.Open) with
      | Ok r when r.P.rs_ok -> ()
      | _ -> failwith ("daemon cannot open " ^ path))
    paths;
  match pid_cpu_ns pid with
  | ns when ns >= 0 -> (pid, ns)
  | _ -> failwith "cannot read the daemon's CPU clock"

(* Compile the inputs, build the containers, start and warm the daemon;
   its busy time is this process's for the builds plus the daemon's. *)
let set_up cfg jobs ~socket =
  let t0 = now_ns () in
  let built, build_busy =
    busy (fun () ->
        List.map
          (fun j ->
            let path = Filename.concat cfg.dir (Jobs.name j ^ ".wet") in
            let packed = Jobs.plain j ~out:path in
            (path, packed.W.stats.W.stmts_executed, file_size path))
          jobs)
  in
  let pid, recover_busy = start cfg ~socket (List.map (fun (p, _, _) -> p) built) in
  { pid; containers = built; build_busy; recover_busy; t0; wall_ns = now_ns () - t0 }

(* ---------------- closed-loop clients ---------------- *)

type obs = {
  o_client : int;
  o_idx : int;  (** the request, an index into the pool *)
  o_t0 : int;
  o_t1 : int;  (** the round trip on the wall clock, ns *)
  o_busy : int;  (** the round trip in busy time, ns *)
  o_resp : (P.response, string) result;
}

let clients () = max 1 (min 2 (nproc ()))

(* A client connection and the daemon thread that serves it: the thread
   that appeared in the daemon when the connection opened and did the
   most work answering its first request, a [health]. *)
let connect_client ~socket ~pid =
  let before = tasks pid in
  match Client.connect socket with
  | Error e -> Error e
  | Ok conn ->
    let fresh () = List.filter (fun t -> not (List.mem t before)) (tasks pid) in
    let cpu tid = try task_cpu_ns ~pid ~tid with _ -> -1 in
    (match Client.request conn (P.request ~id:0 P.Health) with
     | Ok r when r.P.rs_ok ->
       (match
          List.fold_left
            (fun best t -> match best with Some b when cpu b >= cpu t -> best | _ -> Some t)
            None (fresh ())
        with
        | Some tid -> Ok (conn, tid)
        | None ->
          Client.close conn;
          Error "no daemon thread serves the connection")
     | _ ->
       Client.close conn;
       Error "the daemon did not answer health")

(* [clients ()] threads, one connection each, each sending its next
   seeded request as soon as the previous answer arrives, until
   [seconds] have passed and its stream ends. A request's busy time is
   the CPU its client thread spent sending it and reading the answer,
   plus the CPU the daemon thread serving the connection spent from the
   end of the previous request to the end of this one (read once that
   thread has blocked again). Returns every observation, the phase's
   wall and the daemon's busy time over the phase (all its threads). *)
let drive cfg ~socket ~pid ~pool ~stream ~seconds =
  let conns = Array.init (clients ()) (fun _ -> connect_client ~socket ~pid) in
  let daemon_start = pid_cpu_ns pid in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let closing = Atomic.make false in
  let one c () =
    let next = stream ~closing (rng cfg.seed ("client", c)) in
    let out = ref [] in
    let failure e =
      { o_client = c; o_idx = 0; o_t0 = t_start; o_t1 = t_start; o_busy = 0;
        o_resp = Error e }
    in
    let rec go (conn, tid) served i =
      if now_ns () >= deadline then Atomic.set closing true;
      match next () with
      | None -> Client.close conn
      | Some idx ->
        let c0 = thread_cpu_ns () and t0 = now_ns () in
        let resp = Client.request conn (to_wire ~id:i pool.(idx)) in
        let t1 = now_ns () and c1 = thread_cpu_ns () in
        let served' =
          match resp with
          | Ok _ -> ( try settled_cpu_ns ~pid ~tid with _ -> served)
          | Error _ -> served
        in
        out :=
          { o_client = c; o_idx = idx; o_t0 = t0; o_t1 = t1;
            o_busy = served' - served + (c1 - c0); o_resp = resp }
          :: !out;
        (match resp with
         | Ok _ -> go (conn, tid) served' (i + 1)
         | Error _ ->
           Client.close conn;
           start (connect_client ~socket ~pid) (i + 1))
    and start conn i =
      match conn with
      | Ok (conn, tid) ->
        (match settled_cpu_ns ~pid ~tid with
         | served -> go (conn, tid) served i
         | exception e -> out := failure (Printexc.to_string e) :: !out)
      | Error e -> out := failure e :: !out
    in
    start conns.(c) 1;
    List.rev !out
  in
  let results = Array.make (clients ()) [] in
  let threads =
    List.init (clients ()) (fun c ->
        Thread.create (fun () -> results.(c) <- one c ()) ())
  in
  List.iter Thread.join threads;
  let daemon_busy = pid_cpu_ns pid - daemon_start in
  let all = List.concat (Array.to_list results) in
  let t_end = List.fold_left (fun acc o -> max acc o.o_t1) t_start all in
  (all, t_end - t_start, daemon_busy)

(* Latency percentiles over every round trip of the measured phase, in
   busy time, a wrong answer counting as infinitely slow, and the
   requests completed correctly per second of the daemon's busy time. *)
let summarize obs ok ~daemon_busy =
  let lat = List.map2 (fun o ok -> if ok then ms o.o_busy else infinity) obs ok in
  ( percentile 0.5 lat,
    percentile 0.99 lat,
    float_of_int (List.length (List.filter Fun.id ok)) /. secs daemon_busy )

let correct expected o =
  match o.o_resp with
  | Ok r -> r.P.rs_ok && r.P.rs_lines = expected.(o.o_idx)
  | Error _ -> false

(* ---------------- in-process replay (traced runs) ---------------- *)

let noop2 _ _ = ()

(* The query or slice inside a render, without the rendering. *)
let bare s r =
  let q name f = Span.with_ name f in
  match r.kind with
  | Trace Render.Cf ->
    q "probe.query" (fun () ->
        Query.Session.park s Query.Forward;
        ignore (Query.Session.control_flow s Query.Forward ~f:noop2));
    0
  | Trace Render.Values ->
    q "probe.query" (fun () -> ignore (Query.Session.load_values s ~f:noop2));
    0
  | Trace Render.Addresses ->
    q "probe.query" (fun () -> ignore (Query.Session.addresses s ~f:noop2));
    0
  | At ts ->
    q "probe.query" (fun () ->
        match Query.Session.locate_time s ts with
        | None -> ()
        | Some _ ->
          ignore
            (Query.Session.control_flow_from s ~start_ts:(max 1 (ts - 2)) ~steps:4
               ~f:noop2);
          ignore (SR.at_session s ~ts));
    0
  | Slice_last ->
    q "probe.slice" (fun () ->
        let wet = W.Session.wet s in
        let outs =
          Query.copies_matching wet (function Wet_ir.Instr.Output _ -> true | _ -> false)
        in
        let last =
          List.concat_map
            (fun c ->
              List.init (W.node_of_copy wet c).W.n_nexec (fun i ->
                  (W.Session.timestamp s c i, c, i)))
            outs
          |> List.fold_left max (min_int, 0, 0)
        in
        match last with
        | ts, _, _ when ts = min_int -> 0
        | _, c, i -> (Slice.Session.backward s c i).Slice.instances)
  | Paths -> 0

(* What the daemon holds for a replay: its cache, with the default
   capacity, and per client the session state a connection owns. *)
type conn = {
  tally : Telemetry.tally;
  recorder : Explain.recorder;
  scope : Qprof.scope;
  sessions : (string, W.t * W.session) Hashtbl.t;
}

type engine = { cache : Cache.t; conns : (int, conn) Hashtbl.t }

let cache_capacity =
  (Wet_serve.Server.default_config ~socket:"").Wet_serve.Server.cache_capacity

(* [resident], least recently used first, is what the daemon's cache
   held when the replayed requests arrived. *)
let engine ~resident =
  let cache = Cache.create ~capacity:cache_capacity () in
  List.iter (fun p -> ignore (Cache.find cache p)) resident;
  { cache; conns = Hashtbl.create 4 }

let conn_of en c =
  match Hashtbl.find_opt en.conns c with
  | Some x -> x
  | None ->
    let tally = Telemetry.make () and recorder = Explain.make_recorder () in
    let x =
      {
        tally;
        recorder;
        scope = Qprof.make_scope ~tally ~recorder ();
        sessions = Hashtbl.create 8;
      }
    in
    Hashtbl.replace en.conns c x;
    x

(* One replayed request's facts. *)
type replayed = {
  r_lines : string list;
  r_bytes : int;  (** encoded response *)
  r_decode : Telemetry.snapshot;
  r_loaded_bytes : int;
  r_sound : bool;  (** the container validated clean *)
  r_wet : W.t;
  r_qprof_ns : int;  (** the answer rendered inside [Qprof.run] *)
}

(* One request through the calls the daemon makes for it: wire decode,
   [Cache.find] (on a miss [Store.load], in the library's "store.load"
   span, then [Wet.validate]), the connection's session on the
   container, the answer rendered inside [Qprof.run], wire encode. *)
let serve en ~pool ~id (c, idx) =
  let r = pool.(idx) in
  let conn = conn_of en c in
  let span = Span.with_ in
  let line = span "protocol" (fun () -> P.encode_request (to_wire ~id r)) in
  let req =
    match span "protocol" (fun () -> P.decode_request line) with
    | Ok q -> q
    | Error e -> failwith e
  in
  let _, misses, _ = Cache.stats en.cache in
  let e =
    match span "cache" (fun () -> Cache.find en.cache r.path) with
    | Ok e -> e
    | Error m -> failwith m
  in
  let _, misses', _ = Cache.stats en.cache in
  let w = e.Cache.e_wet in
  let session =
    lazy
      (match Hashtbl.find_opt conn.sessions r.path with
       | Some (w', s) when w' == w -> s
       | _ ->
         let s =
           span "session.open" (fun () ->
               W.open_session ~tally:conn.tally ~recorder:conn.recorder w)
         in
         Hashtbl.replace conn.sessions r.path (w, s);
         s)
  in
  if r.kind <> Paths then ignore (Lazy.force session);
  let before = Telemetry.snapshot ~tally:conn.tally () in
  let (res, _profile), qprof_ns =
    timed @@ fun () ->
    span "qprof" (fun () ->
        Qprof.run ~scope:conn.scope
          ~params:(req.P.rq_params @ [ ("wet", r.path) ])
          (shape r)
          (fun () -> answer session w r))
  in
  let decode = Telemetry.delta ~before ~after:(Telemetry.snapshot ~tally:conn.tally ()) in
  let lines = match res with Ok l -> l | Error e -> raise e in
  let out =
    span "protocol" (fun () ->
        P.encode_response
          { P.rs_id = req.P.rq_id; rs_ok = true; rs_error = None; rs_lines = lines;
            rs_data = Json.Obj [] })
  in
  ignore (span "protocol" (fun () -> P.decode_response out));
  {
    r_lines = lines;
    r_bytes = String.length out;
    r_decode = decode;
    r_loaded_bytes = (if misses' > misses then file_size r.path else 0);
    r_sound = e.Cache.e_damage = [];
    r_wet = w;
    r_qprof_ns = qprof_ns;
  }

type replay = {
  shape : string;  (** the request's qprof shape *)
  facts : replayed;
  untraced : int;
  traced : int;
  instances : int;  (** slice size *)
  bare_ns : int;
  render_ns : int;
}

(* Replays [reqs] (client, pool index) in order on two engines started
   alike: untraced on one, timed by the clock alone, and traced on the
   other inside a "request" span; then the layer probes, the bare query
   and the render without qprof, each on sessions of their own that see
   the same requests. Each pair runs in alternating order from request
   to request, so neither side gains from going second. Returns, per
   request, its facts, its
   untraced and traced service times, the two probes' times (all ns)
   and its slice size, and the traced engine's resident words at the
   end. *)
let replay ~pool ~resident reqs =
  let plain_en, traced_en =
    Spans.with_sink false (fun () -> (engine ~resident, engine ~resident))
  in
  let probes = Hashtbl.create 16 in
  let probe_session key w =
    match Hashtbl.find_opt probes key with
    | Some (w', s) when w' == w -> s
    | _ ->
      let s = W.open_session w in
      Hashtbl.replace probes key (w, s);
      s
  in
  let one i (c, idx) =
    let id = i + 1 and r = pool.(idx) in
    let untraced () =
      Spans.with_sink false (fun () ->
          snd (timed (fun () -> serve plain_en ~pool ~id (c, idx))))
    and traced () =
      Spans.with_sink true (fun () ->
          timed (fun () ->
              Span.with_
                ~attrs:[ ("request", Span.Int id); ("client", Span.Int c) ]
                "request"
                (fun () -> serve traced_en ~pool ~id (c, idx))))
    in
    let untraced, (x, traced) =
      if i mod 2 = 0 then
        let u = untraced () in
        (u, traced ())
      else
        let t = traced () in
        (untraced (), t)
    in
    Spans.with_sink true (fun () ->
        let w = x.r_wet in
        let bare () =
          timed (fun () ->
              if r.kind = Paths then 0 else bare (probe_session (`Bare, c, r.path) w) r)
        and render () =
          snd
            (timed (fun () ->
                 Span.with_ "probe.render" (fun () ->
                     ignore (answer (lazy (probe_session (`Render, c, r.path) w)) w r))))
        in
        let (instances, bare_ns), render_ns =
          if i mod 2 = 0 then
            let b = bare () in
            (b, render ())
          else
            let r = render () in
            (bare (), r)
        in
        { shape = shape r; facts = x; untraced; traced; instances; bare_ns; render_ns })
  in
  let replayed = List.mapi one reqs in
  let resident_words =
    List.fold_left
      (fun acc e -> acc + Obj.reachable_words (Obj.repr e.Cache.e_wet))
      0 (Cache.resident traced_en.cache)
  in
  (replayed, resident_words)

(* ---------------- the workload ---------------- *)

(* More set-ups where one is cheap: [serve_scan]'s takes a quarter of a
   second, so it takes nine to settle their median; [serve_cold]'s takes
   about five, so it takes three. Every set-up's daemon start is timed
   for [recover_ms_p50], and so are [restarts] more starts. A set-up or
   a start measured at one moment follows the host's speed of that
   moment, which can move by half from one second to the next, so they
   are split between the two ends of the run: [setups_before] set-ups
   come before the measured phase, the last one's daemon serving it,
   and the other set-ups and the restarts after it. *)
let setups ~cold = if cold then 3 else 9

let setups_before ~cold = if cold then 2 else 5

let restarts ~cold = if cold then 6 else 9

let run cfg ~cold =
  let setups_before = setups_before ~cold in
  let jobs =
    if cold then Jobs.jobs cfg ~div:16 else Jobs.jobs ~only:scan_names cfg ~div:16
  in
  let socket = Filename.concat cfg.dir "serve.sock" in
  let speed = if cfg.traced then None else Some (start_speed_probe ()) in
  (* set up several times; the daemon of the last set-up serves the
     run. Set-up and the reference answers computed before the timed
     phase are never traced. *)
  let reps, su, pool, stream, expected =
    Spans.with_sink false (fun () ->
        let reps =
          List.init setups_before (fun i ->
              let s = set_up cfg jobs ~socket in
              if i < setups_before - 1 then shutdown ~socket s.pid;
              s)
        in
        let su = List.nth reps (setups_before - 1) in
        let containers =
          List.map (fun (path, _, _) -> (path, Store.load path)) su.containers
        in
        let pool, stream = pool cfg ~cold containers in
        let expected =
          Array.map
            (fun r ->
              let w = List.assoc r.path containers in
              let lines = answer (lazy (W.open_session w)) w r in
              if cfg.wrong_reference then lines @ [ "(deliberately wrong)" ] else lines)
            pool
        in
        (reps, su, pool, stream, expected))
  in
  let paths = List.map (fun (p, _, _) -> p) su.containers in
  let notes =
    [
      Printf.sprintf "%d containers (scale = timing_scale/16), %d closed-loop clients"
        (List.length paths) (clients ());
    ]
  in
  let judge obs =
    let ok = List.map (correct expected) obs in
    (ok, List.length (List.filter not ok))
  in
  let drive ~seconds =
    Spans.with_sink false (fun () -> drive cfg ~socket ~pid:su.pid ~pool ~stream ~seconds)
  in
  if not cfg.traced then begin
    let t_phase = now_ns () in
    let obs, wall, daemon_busy = drive ~seconds:cfg.seconds in
    let rss = peak_rss_mb ~pid:su.pid () in
    shutdown ~socket su.pid;
    let reps =
      reps
      @ List.init (setups ~cold - setups_before) (fun _ ->
            let s = set_up cfg jobs ~socket in
            shutdown ~socket s.pid;
            s)
    in
    let restarts =
      List.init (restarts ~cold) (fun _ ->
          let t0 = now_ns () in
          let pid, ns = start cfg ~socket paths in
          shutdown ~socket pid;
          (ms ns, t0, now_ns ()))
    in
    let ok, failed = judge obs in
    let p50, p99, rate = summarize obs ok ~daemon_busy in
    let fsum f l = sum (List.map f l) in
    let stmts = fsum (fun (_, s, _) -> float_of_int s) su.containers in
    (* the metrics, each set-up's busy times scaled by [setup_k], each
       restart's by [start_k] and the measured phase's by [phase_k] *)
    let metrics ~setup_k ~start_k ~phase_k =
      [
        ( "setup_s",
          median
            (List.map (fun s -> secs (s.build_busy + s.recover_busy) *. setup_k s) reps) );
        ( "build_stmts_per_s",
          stmts *. float_of_int (List.length reps)
          /. fsum (fun s -> secs s.build_busy *. setup_k s) reps );
        ( "container_bytes_per_stmt",
          fsum (fun (_, _, b) -> float_of_int b) su.containers /. stmts );
        ("peak_rss_mb", rss);
        ( "recover_ms_p50",
          percentile 0.5
            (List.map (fun s -> ms s.recover_busy *. setup_k s) reps
            @ List.map (fun (x, t0, t1) -> x *. start_k ~t0 ~t1) restarts) );
        ("latency_p50_ms", p50 *. phase_k);
        ("latency_p99_ms", p99 *. phase_k);
        ("req_per_s", rate /. phase_k);
      ]
    in
    (* Set-ups and daemon starts, at the two ends of the run, are each
       scaled to the reference speed by the probe around them, and the
       measured phase by the probe during it. *)
    let samples = stop_speed_probe (Option.get speed) in
    let k ~t0 ~t1 = at_reference ~loop_ms:(loop_ms ~t0 ~t1 samples) 1. in
    let phase_k = k ~t0:t_phase ~t1:(t_phase + wall) in
    let values =
      metrics
        ~setup_k:(fun s -> k ~t0:s.t0 ~t1:(s.t0 + s.wall_ns))
        ~start_k:k ~phase_k
    and measured =
      metrics ~setup_k:(fun _ -> 1.) ~start_k:(fun ~t0:_ ~t1:_ -> 1.) ~phase_k:1.
    in
    let speed_note =
      Catalogue.speed_note ~loop_ms:(loop_ms samples) ~scale:phase_k measured
    in
    let notes =
      notes
      @ [
          Printf.sprintf "%d requests; the daemon was busy %.2f s in %.2f s of wall"
            (List.length obs) (secs daemon_busy) (secs wall);
          Printf.sprintf "set-ups took %s s of wall"
            (String.concat ", "
               (List.map (fun s -> Printf.sprintf "%.2f" (secs s.wall_ns)) reps));
          speed_note;
        ]
    in
    {
      Catalogue.attempted = List.length obs;
      failed;
      values;
      checks = [ ("every response equals the in-process answer", failed = 0) ];
      layer_checks = [];
      notes;
    }
  end
  else begin
    (* a client phase against the daemon, its requests then replayed
       in-process in the order they arrived *)
    let before = counters ~socket in
    let obs, _, _ = drive ~seconds:(cfg.seconds /. 4.) in
    let after = counters ~socket in
    shutdown ~socket su.pid;
    let _, failed = judge obs in
    let obs = List.sort (fun a b -> compare a.o_t0 b.o_t0) obs in
    (* the round trips go into the trace beside the replay's spans *)
    List.iter
      (fun o ->
        Sink.record
          {
            Sink.ev_name = "round_trip";
            ev_ts_ns = o.o_t0;
            ev_dur_ns = Some (o.o_t1 - o.o_t0);
            ev_depth = 0;
            ev_attrs = [ ("client", Sink.Int o.o_client) ];
          })
      obs;
    let replayed, resident =
      replay ~pool ~resident:before.resident (List.map (fun o -> (o.o_client, o.o_idx)) obs)
    in
    let t = Spans.of_events (Sink.events ()) in
    let n = float_of_int (List.length replayed) in
    let per name = Spans.total_ms t name /. n in
    let facts = List.map (fun x -> x.facts) replayed in
    let rsum f = sum (List.map (fun x -> float_of_int (f x)) facts) in
    let steps = rsum (fun x -> Telemetry.steps x.r_decode) in
    let untraced = List.map (fun x -> ms x.untraced) replayed
    and traced = List.map (fun x -> ms x.traced) replayed in
    (* waiting: each request's round trip minus its own untraced
       in-process service time *)
    let service = mean untraced in
    let wait = mean (List.map2 (fun o u -> ms (o.o_t1 - o.o_t0) -. u) obs untraced) in
    let unexplained =
      100. *. ratio (Spans.self_ms t "request") (Spans.total_ms t "request")
    in
    let query = per "probe.query" +. per "probe.slice" and render = per "probe.render" in
    let qprof = per "qprof" in
    let values =
      [
        ("store.load.busy_ms", per "store.load");
        ("store.load.bytes", rsum (fun x -> x.r_loaded_bytes) /. n);
        (* the Cache.find span less its store.load: validation on a miss,
           the LRU's bookkeeping on a hit *)
        ("wet.validate.busy_ms", Spans.self_ms t "cache" /. n);
        ( "serve.cache.hit_ratio",
          ratio (after.hits -. before.hits)
            (after.hits -. before.hits +. after.misses -. before.misses) );
        ("serve.cache.misses", after.misses -. before.misses);
        ("serve.cache.evictions", after.evictions -. before.evictions);
        ("session.open.busy_ms", per "session.open");
        ("serve.sessions.opened", after.opened -. before.opened);
        ("query.busy_ms", per "probe.query");
        ("query.decode_steps", steps /. n);
        ("query.bits_touched", rsum (fun x -> x.r_decode.Telemetry.g_bits) /. n);
        ( "query.dict_hit_ratio",
          ratio
            (rsum (fun x -> x.r_decode.Telemetry.g_hits))
            (rsum (fun x -> x.r_decode.Telemetry.g_hits + x.r_decode.Telemetry.g_misses)) );
        ("query.rows_per_step", ratio (rsum (fun x -> List.length x.r_lines)) steps);
        ("slice.busy_ms", per "probe.slice");
        ( "slice.instances",
          sum (List.map (fun x -> float_of_int x.instances) replayed) /. n );
        ("render.busy_ms", render -. query);
        ("qprof.busy_ms", qprof -. render);
        ("protocol.busy_ms", per "protocol");
        ("protocol.response_bytes", rsum (fun x -> x.r_bytes) /. n);
        ("serve.wait_ms", wait);
        ("wet.resident_words", float_of_int resident);
        ("tracing.overhead_pct", 100. *. ((sum traced /. sum untraced) -. 1.));
        ("layers.unexplained_pct", unexplained);
      ]
    in
    let values =
      List.map
        (fun (m, _) -> (m, Option.value ~default:0. (List.assoc_opt m values)))
        Catalogue.per_layer
    in
    let tol = Catalogue.layer_tolerance_pct in
    (* per request, in median over the requests of each shape, so one
       burst of host noise landing on a single probe cannot fail the
       check, while a probe that mismeasures one shape still does *)
    let within part whole =
      List.for_all
        (fun sh ->
          median
            (List.filter_map
               (fun x ->
                 if x.shape = sh then
                   Some (float_of_int (part x) /. float_of_int (max 1 (whole x)))
                 else None)
               replayed)
          <= 1. +. (tol /. 100.))
        (List.sort_uniq compare (List.map (fun x -> x.shape) replayed))
    in
    let replay_failed =
      List.length
        (List.filter Fun.id
           (List.map2
              (fun o x -> not (x.r_sound && x.r_lines = expected.(o.o_idx)))
              obs facts))
    in
    let checks =
      [
        ("every response equals the in-process answer", failed = 0);
        ("every replayed answer equals the in-process answer", replay_failed = 0);
      ]
    in
    let layer_checks =
      [
        ( Printf.sprintf "serve.wait_ms is not below -%.0f%% of the service time" tol,
          wait >= -.(tol /. 100.) *. service );
        ( Printf.sprintf "request layer spans add up to the request within %.0f%%" tol,
          unexplained <= tol );
        ( Printf.sprintf "the bare query/slice is within %.0f%% of its render" tol,
          within (fun x -> x.bare_ns) (fun x -> x.render_ns) );
        ( Printf.sprintf "the render is within %.0f%% of the render in Qprof.run" tol,
          within (fun x -> x.render_ns) (fun x -> x.facts.r_qprof_ns) );
      ]
    in
    let notes =
      notes
      @ [
          Printf.sprintf "%d requests against the daemon, every one replayed in-process"
            (List.length obs);
        ]
    in
    {
      Catalogue.attempted = 2 * List.length obs;
      failed = failed + replay_failed;
      values;
      checks;
      layer_checks;
      notes;
    }
  end
