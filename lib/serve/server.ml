module W = Wet_core.Wet
module Telemetry = Wet_bistream.Telemetry
module Ex = Wet_watch.Explain
module Obs = Wet_obs.Metrics
module Sink = Wet_obs.Sink
module Export = Wet_obs.Export
module Log = Wet_obs.Log
module Clock = Wet_obs.Clock
module Qprof = Wet_qprof.Qprof
module Qlog = Wet_qprof.Qlog
module Json = Wet_insight.Json
module P = Protocol

type config = {
  socket : string;
  cache_capacity : int;
  qlog : string option;
  ring_capacity : int;
  domains : int;
}

let default_config ~socket =
  {
    socket;
    cache_capacity = 4;
    qlog = None;
    ring_capacity = 4096;
    domains = max 0 (Domain.recommended_domain_count () - 2);
  }

(* ---------------- process-view instruments ---------------- *)

(* Connection-scoped counts live in per-connection Local registries
   (below); only genuinely process-global state records here. *)
let c_connections = Obs.counter "serve.connections"

let g_in_flight = Obs.gauge "serve.in_flight"

(* Session lifecycle over the resident containers: one [Wet.session]
   per (connection, path), minted lazily and kept until the container
   under the path is reloaded. *)
let c_sessions_opened = Obs.counter "serve.sessions.opened"

let c_sessions_reused = Obs.counter "serve.sessions.reused"

(* ---------------- per-connection state ---------------- *)

(* Each connection owns a Local registry it records into without
   contention; [conn.lock] only guards the moment the metrics verb
   merges a snapshot out while the owner might be recording.

   The connection is also the ownership unit for read-side cursor
   state: it carries a private decode tally, the recorder its queries
   note entry points in, the qprof scope over both, and a table of
   [Wet.session]s (one per container path) minted against them.
   Everything in it except [local] is touched only by the connection's
   own thread. *)
type conn = {
  id : int;
  fd : Unix.file_descr;
  mutable closed : bool;
  local : Obs.Local.t;
  lock : Mutex.t;
  tally : Telemetry.tally;
  recorder : Ex.recorder;
  scope : Qprof.scope;
  (* path -> (container it was opened on, session). The container is
     kept to detect staleness: a path can be re-admitted after an
     eviction, and a session on the old container must not answer for
     the new one. *)
  sessions : (string, W.t * W.session) Hashtbl.t;
  c_requests : P.verb -> Obs.counter;
  c_errors : Obs.counter;
  c_bytes_in : Obs.counter;
  c_bytes_out : Obs.counter;
  h_request_ns : Obs.histogram;
}

let make_conn id fd =
  let local = Obs.Local.create () in
  let by_verb =
    List.map
      (fun v ->
        (v, Obs.Local.counter local ("serve.requests." ^ P.verb_name v)))
      P.all_verbs
  in
  let tally = Telemetry.make () in
  let recorder = Ex.make_recorder () in
  {
    id;
    fd;
    closed = false;
    local;
    lock = Mutex.create ();
    tally;
    recorder;
    scope = Qprof.make_scope ~tally ~recorder ();
    sessions = Hashtbl.create 4;
    c_requests = (fun v -> List.assoc v by_verb);
    c_errors = Obs.Local.counter local "serve.errors";
    c_bytes_in = Obs.Local.counter local "serve.bytes_in";
    c_bytes_out = Obs.Local.counter local "serve.bytes_out";
    h_request_ns = Obs.Local.histogram local "serve.request_ns";
  }

(* The connection's session over an admitted container, minting it on
   first use. Runs on the connection's own thread with no lock:
   [Wet.open_session] only reads the immutable container and builds
   private cursors. *)
let session_of conn (e : Cache.entry) =
  match Hashtbl.find_opt conn.sessions e.Cache.e_path with
  | Some (w, s) when w == e.Cache.e_wet ->
    Obs.incr c_sessions_reused;
    s
  | _ ->
    let s =
      W.open_session ~tally:conn.tally ~recorder:conn.recorder
        e.Cache.e_wet
    in
    Hashtbl.replace conn.sessions e.Cache.e_path (e.Cache.e_wet, s);
    Obs.incr c_sessions_opened;
    s

(* ---------------- daemon state ---------------- *)

type state = {
  cfg : config;
  cache : Cache.t;
  ring : Ring.t;
  t0_ns : int;
  (* the engine lock now guards only cache admission and inspection —
     [Cache.find]/[peek]/[stats]/[resident] mutate or walk the LRU
     table. Read verbs run outside it: each connection's session owns
     its cursors, and its decode work lands on its own tally. *)
  engine : Mutex.t;
  (* serialises access-qlog appends from every connection thread; the
     ring takes its own lock *)
  qlog_lock : Mutex.t;
  conns_lock : Mutex.t;
  mutable conns : conn list;
  mutable in_flight : int;
  requests_total : int Atomic.t;
  (* connection handlers claimed a domain slot; see [domain_budget] *)
  dom_active : int Atomic.t;
  mutable shutdown : bool;
}

(* Connection handlers run on their own domains up to [cfg.domains] —
   the session split makes concurrent reads safe, domains make them
   parallel — and fall back to sys-threads of the accept domain once
   the budget is spent (correct either way, threads just time-share).
   The default reserves two slots: the accept loop's own domain and
   one for whatever process hosts the daemon. *)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ---------------- verb handlers ---------------- *)

let param st name = List.assoc_opt name st.P.rq_params

let int_param req name ~default =
  match param req name with
  | None -> Ok default
  | Some s ->
    (match int_of_string_opt s with
     | Some i -> Ok i
     | None -> Error (Printf.sprintf "param %S must be an integer" name))

let opt_int_param req name =
  match param req name with
  | None -> Ok None
  | Some s ->
    (match int_of_string_opt s with
     | Some i -> Ok (Some i)
     | None -> Error (Printf.sprintf "param %S must be an integer" name))

let require_wet t req k =
  match req.P.rq_wet with
  | None ->
    Error
      (Printf.sprintf "verb %S needs a \"wet\" container path"
         (P.verb_name req.P.rq_verb))
  | Some path ->
    (match with_lock t.engine (fun () -> Cache.find t.cache path) with
     | Error m -> Error m
     | Ok entry -> k entry)

let json_int i = Json.Num (float_of_int i)

let entry_json (e : Cache.entry) =
  Json.Obj
    [
      ("path", Json.Str e.Cache.e_path);
      ("label", Json.Str (Filename.basename e.Cache.e_path));
      ("stmts", json_int e.Cache.e_wet.W.stats.W.stmts_executed);
      ( "tier",
        Json.Str
          (match e.Cache.e_wet.W.tier with
           | `Tier1 -> "tier-1"
           | `Tier2 -> "tier-2") );
      ("damage", Json.Arr (List.map (fun d -> Json.Str d) e.Cache.e_damage));
      ("requests", json_int e.Cache.e_requests);
    ]

let ring_stats_json (s : Ring.stats) =
  Json.Obj
    [
      ("pushed", json_int s.Ring.total);
      ("dropped", json_int s.Ring.dropped);
      ("retained", json_int s.Ring.retained);
      ("capacity", json_int s.Ring.capacity);
    ]

let health_data t =
  let hits, misses, evictions, resident =
    with_lock t.engine (fun () ->
        let h, m, e = Cache.stats t.cache in
        (h, m, e, Cache.resident t.cache))
  in
  Json.Obj
    [
      ("schema", Json.Str P.schema);
      ("status", Json.Str "ok");
      ( "uptime_ms",
        Json.Num (Clock.to_s (Clock.now_ns () - t.t0_ns) *. 1e3) );
      ("requests_total", json_int (Atomic.get t.requests_total));
      ("in_flight", json_int t.in_flight);
      ( "cache",
        Json.Obj
          [
            ("capacity", json_int (Cache.capacity t.cache));
            ("resident", json_int (List.length resident));
            ("hits", json_int hits);
            ("misses", json_int misses);
            ("evictions", json_int evictions);
          ] );
      ("ring", ring_stats_json (Ring.stats t.ring));
      ("wets", Json.Arr (List.map entry_json resident));
    ]

(* The merged metric view: the process registry (interp/build/qprof/…
   plus serve.cache.* and the gauges) folded together with every live
   connection's private serve.* registry. Merging into a scratch
   registry leaves all sources untouched. *)
let merged_snapshot t =
  let scratch = Obs.Local.create () in
  Obs.merge ~into:scratch Obs.default;
  let conns = with_lock t.conns_lock (fun () -> t.conns) in
  List.iter
    (fun c -> with_lock c.lock (fun () -> Obs.merge ~into:scratch c.local))
    conns;
  Obs.Local.snapshot scratch

let metrics_lines t =
  let s = Export.metrics_jsonl_of (merged_snapshot t) in
  (* drop the split's trailing "" — the export ends with one newline *)
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rev -> List.rev rev
  | rev -> List.rev rev

let watch_data t req =
  match int_param req "last" ~default:32 with
  | Error _ as e -> e
  | Ok last ->
    let entries, stats = Ring.snapshot t.ring in
    let keep =
      let n = List.length entries in
      List.filteri (fun i _ -> i >= n - last) entries
    in
    let entry_json (e : Sink.event) =
      Json.Obj
        ([
           ("type", Json.Str "span");
           ("name", Json.Str e.Sink.ev_name);
           ("ts_ns", json_int e.Sink.ev_ts_ns);
         ]
        @
        match e.Sink.ev_dur_ns with
        | None -> []
        | Some d -> [ ("dur_ns", json_int d) ])
    in
    Ok
      (Json.Obj
         [
           ("ring", ring_stats_json stats);
           ("entries", Json.Arr (List.map entry_json keep));
         ])

(* Dispatch one request to (lines, data). Runs on the connection's own
   thread, outside the engine lock: verbs that move cursors do so on
   the connection's session, so concurrent connections interleave
   freely over one resident container and still answer byte-identically
   to the serial path. Only cache admission serialises. *)
let answer t conn req =
  match req.P.rq_verb with
  | P.Open ->
    require_wet t req (fun e -> Ok ([], entry_json e))
  | P.Stats ->
    require_wet t req (fun e ->
        Ok
          ( Render.stats_json e.Cache.e_wet
              ~label:(Filename.basename e.Cache.e_path),
            Json.Obj [] ))
  | P.Trace ->
    require_wet t req (fun e ->
        match
          Render.trace_kind_of_string
            (Option.value (param req "kind") ~default:"cf")
        with
        | Error _ as err -> err
        | Ok kind ->
          (match int_param req "limit" ~default:50 with
           | Error _ as err -> err
           | Ok limit ->
             Ok (Render.trace (session_of conn e) ~kind ~limit, Json.Obj [])))
  | P.Slice ->
    require_wet t req (fun e ->
        match opt_int_param req "output" with
        | Error _ as err -> err
        | Ok output ->
          Ok (Render.slice (session_of conn e) ~output, Json.Obj []))
  | P.At ->
    require_wet t req (fun e ->
        match opt_int_param req "ts" with
        | Error _ as err -> err
        | Ok ts -> Ok (Render.at (session_of conn e) ~ts, Json.Obj []))
  | P.Paths ->
    require_wet t req (fun e ->
        match int_param req "top" ~default:10 with
        | Error _ as err -> err
        | Ok top -> Ok (Render.paths e.Cache.e_wet ~top, Json.Obj []))
  | P.Watch -> (
    match watch_data t req with
    | Error _ as err -> err
    | Ok data -> Ok ([], data))
  | P.Health -> Ok ([], health_data t)
  | P.Metrics -> Ok (metrics_lines t, Json.Obj [])
  | P.Shutdown ->
    t.shutdown <- true;
    Ok ([ "shutting down" ], Json.Obj [])

(* The qprof shape fingerprint: query verbs reuse the one-shot CLI's
   vocabulary so daemon access logs aggregate with --qlog-out files.
   The set is closed: each shape gets its own latency histogram, so a
   client-chosen trace kind must not mint one; every kind [trace]
   rejects shares [trace/invalid]. *)
let shape_of req =
  match req.P.rq_verb with
  | P.Trace -> (
    let kind = Option.value (param req "kind") ~default:"cf" in
    match Render.trace_kind_of_string kind with
    | Ok _ -> "trace/" ^ kind
    | Error _ -> "trace/invalid")
  | P.Slice -> "slice/backward"
  | P.At -> "at"
  | P.Paths -> "paths"
  | v -> "serve/" ^ P.verb_name v

(* --analyze tables need the target WET for the planner's estimates;
   [peek] avoids distorting the hit/miss tallies with a second lookup. *)
let analyze_lines t req profile =
  match req.P.rq_wet with
  | None -> []
  | Some path ->
    (match with_lock t.engine (fun () -> Cache.peek t.cache path) with
     | None -> []
     | Some e -> Render.analyze e.Cache.e_wet profile)

let handle t conn req =
  Atomic.incr t.requests_total;
  let shape = shape_of req in
  let params =
    req.P.rq_params
    @ match req.P.rq_wet with None -> [] | Some w -> [ ("wet", w) ]
  in
  let start_ns = Clock.now_ns () in
  let res, profile =
    Qprof.run ~scope:conn.scope ~params shape (fun () -> answer t conn req)
  in
  let dur_ns = Clock.now_ns () - start_ns in
  (* the sink's tap hands the request span to the ring, its one home *)
  Sink.record
    {
      Sink.ev_name = "serve." ^ P.verb_name req.P.rq_verb;
      ev_ts_ns = start_ns;
      ev_dur_ns = Some dur_ns;
      ev_depth = 0;
      ev_attrs = [ ("conn", Sink.Int conn.id); ("id", Sink.Int req.P.rq_id) ];
    };
  (match t.cfg.qlog with
   | None -> ()
   | Some path ->
     with_lock t.qlog_lock (fun () ->
         try Qlog.append path profile
         with Sys_error m -> Log.error "cannot append access qlog: %s" m));
  with_lock conn.lock (fun () ->
      Obs.incr (conn.c_requests req.P.rq_verb);
      Obs.observe conn.h_request_ns dur_ns);
  match res with
  | Ok (Ok (lines, data)) ->
    let lines =
      if req.P.rq_analyze then lines @ analyze_lines t req profile
      else lines
    in
    {
      P.rs_id = req.P.rq_id;
      rs_ok = true;
      rs_error = None;
      rs_lines = lines;
      rs_data = data;
    }
  | Ok (Error msg) ->
    with_lock conn.lock (fun () -> Obs.incr conn.c_errors);
    P.error_response ~id:req.P.rq_id msg
  | Error exn ->
    with_lock conn.lock (fun () -> Obs.incr conn.c_errors);
    let msg =
      match exn with
      | Wet_error.Error e -> Wet_error.message e
      | W.Missing_stream sec ->
        Printf.sprintf "section %S was lost to a salvage load" sec
      | e -> Printexc.to_string e
    in
    P.error_response ~id:req.P.rq_id msg

(* ---------------- connection loop ---------------- *)

let serve_connection t conn =
  let ic = Unix.in_channel_of_descr conn.fd in
  let oc = Unix.out_channel_of_descr conn.fd in
  let rec loop () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
      with_lock conn.lock (fun () ->
          Obs.add conn.c_bytes_in (String.length line + 1));
      with_lock t.conns_lock (fun () ->
          t.in_flight <- t.in_flight + 1;
          Obs.set g_in_flight t.in_flight);
      let resp =
        Fun.protect
          ~finally:(fun () ->
            with_lock t.conns_lock (fun () ->
                t.in_flight <- t.in_flight - 1;
                Obs.set g_in_flight t.in_flight))
          (fun () ->
            match P.decode_request line with
            | Error msg ->
              with_lock conn.lock (fun () -> Obs.incr conn.c_errors);
              Log.debug "conn %d: bad request: %s" conn.id msg;
              P.error_response ~id:0 msg
            | Ok req -> handle t conn req)
      in
      let out = P.encode_response resp in
      output_string oc out;
      output_char oc '\n';
      flush oc;
      with_lock conn.lock (fun () ->
          Obs.add conn.c_bytes_out (String.length out + 1));
      (* closing the listening socket does not interrupt a thread
         blocked in accept(2); a dummy connection does *)
      if t.shutdown then begin
        match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
        | probe -> (
          (try Unix.connect probe (Unix.ADDR_UNIX t.cfg.socket)
           with Unix.Unix_error _ -> ());
          try Unix.close probe with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ()
      end;
      Log.debug "conn %d: %s (%d lines)" conn.id
        (match resp.P.rs_error with
         | Some e -> "error: " ^ e
         | None -> "ok")
        (List.length resp.P.rs_lines);
      if not t.shutdown then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      with_lock t.conns_lock (fun () ->
          if not conn.closed then begin
            conn.closed <- true;
            try Unix.close conn.fd with Unix.Unix_error _ -> ()
          end);
      Log.info "connection %d closed" conn.id)
    (fun () -> try loop () with Sys_error _ | End_of_file -> ())

(* ---------------- socket lifecycle ---------------- *)

(* A socket file can outlive a killed daemon. Probe it: connection
   refused means nobody is listening (remove and rebind); a successful
   connect means the address is genuinely being served. *)
let claim_socket path =
  (match Unix.stat path with
   | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
   | { Unix.st_kind = Unix.S_SOCK; _ } -> (
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     match Unix.connect probe (Unix.ADDR_UNIX path) with
     | () ->
       Unix.close probe;
       Wet_error.fail Obs "%s is already being served" path
     | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
       ->
       Unix.close probe;
       Log.warn "removing stale socket %s" path;
       (try Unix.unlink path with Unix.Unix_error _ -> ())
     | exception Unix.Unix_error _ ->
       Unix.close probe;
       Wet_error.fail Obs "cannot probe existing socket %s" path)
   | _ -> Wet_error.fail Obs "%s exists and is not a socket" path);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.bind fd (Unix.ADDR_UNIX path) with
  | () ->
    Unix.listen fd 64;
    fd
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Wet_error.fail Obs "cannot bind %s: %s" path (Unix.error_message e)

let run cfg =
  Sink.enable ();
  let ring = Ring.create ~capacity:cfg.ring_capacity () in
  Ring.install ring;
  let t =
    {
      cfg;
      cache = Cache.create ~capacity:cfg.cache_capacity ();
      ring;
      t0_ns = Clock.now_ns ();
      engine = Mutex.create ();
      qlog_lock = Mutex.create ();
      conns_lock = Mutex.create ();
      conns = [];
      in_flight = 0;
      requests_total = Atomic.make 0;
      dom_active = Atomic.make 0;
      shutdown = false;
    }
  in
  let listen_fd = claim_socket cfg.socket in
  Log.info "serving on %s (cache %d, ring %d%s)" cfg.socket
    cfg.cache_capacity cfg.ring_capacity
    (match cfg.qlog with None -> "" | Some q -> ", qlog " ^ q);
  let threads = ref [] in
  let domains = ref [] in
  let next_id = ref 0 in
  let rec claim_domain_slot () =
    let n = Atomic.get t.dom_active in
    if n >= cfg.domains then false
    else if Atomic.compare_and_set t.dom_active n (n + 1) then true
    else claim_domain_slot ()
  in
  (let rec accept_loop () =
     match Unix.accept listen_fd with
     | fd, _ ->
       if t.shutdown then (
         (* the shutdown handler's wake-up connection (or a client that
            raced it) — drop it and stop accepting *)
         try Unix.close fd with Unix.Unix_error _ -> ())
       else begin
         incr next_id;
         let conn = make_conn !next_id fd in
         Obs.incr c_connections;
         with_lock t.conns_lock (fun () -> t.conns <- conn :: t.conns);
         Log.info "connection %d accepted" conn.id;
         if claim_domain_slot () then begin
           let d =
             Domain.spawn (fun () ->
                 Fun.protect
                   ~finally:(fun () ->
                     ignore (Atomic.fetch_and_add t.dom_active (-1)))
                   (fun () -> serve_connection t conn))
           in
           domains := d :: !domains
         end
         else begin
           let th = Thread.create (fun () -> serve_connection t conn) () in
           threads := th :: !threads
         end;
         accept_loop ()
       end
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
   in
   accept_loop ();
   try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (* wake connection threads still blocked on idle clients: a shutdown
     half-close delivers EOF without racing the owner's own close *)
  with_lock t.conns_lock (fun () ->
      List.iter
        (fun c ->
          if not c.closed then
            try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
        t.conns);
  List.iter Thread.join !threads;
  List.iter Domain.join !domains;
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  Ring.uninstall ();
  Log.info "serve: clean shutdown (%d requests)"
    (Atomic.get t.requests_total)
