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

(* ---------------- instruments ---------------- *)

let c_connections = Obs.counter "serve.connections"

let g_in_flight = Obs.gauge "serve.in_flight"

let c_errors = Obs.counter "serve.errors"

let c_bytes_in = Obs.counter "serve.bytes_in"

let c_bytes_out = Obs.counter "serve.bytes_out"

let c_sessions_opened = Obs.counter "serve.sessions.opened"

let c_sessions_reused = Obs.counter "serve.sessions.reused"

(* ---------------- per-connection state ---------------- *)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The connection is the ownership unit for read-side cursor state: it
   carries a private decode tally, the recorder its queries note entry
   points in, the qprof scope over both, and a table of [Wet.session]s
   (one per container path) minted against them. Only the connection's
   own thread touches it, bar the shutdown half-close of [fd]. *)
type conn = {
  id : int;
  fd : Unix.file_descr;
  tally : Telemetry.tally;
  recorder : Ex.recorder;
  scope : Qprof.scope;
  (* path -> (container it was opened on, session). The container is
     kept to detect staleness: a path can be re-admitted after an
     eviction, and a session on the old container must not answer for
     the new one. *)
  sessions : (string, W.t * W.session) Hashtbl.t;
}

let make_conn id fd =
  let tally = Telemetry.make () in
  let recorder = Ex.make_recorder () in
  {
    id;
    fd;
    tally;
    recorder;
    scope = Qprof.make_scope ~tally ~recorder ();
    sessions = Hashtbl.create 4;
  }

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
  (* open connections only: each leaves the list as it closes, and
     signals [conns_left] *)
  mutable conns : conn list;
  conns_left : Condition.t;
  mutable in_flight : int;
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

(* The connection's session over an admitted container, minting it on
   first use and keeping it until the container under the path is
   reloaded. Before minting one, the connection drops every session
   whose container the cache no longer holds — the staleness check
   would never reuse it, and keeping it would pin an evicted container
   for the connection's life. The reuse path takes no lock: the
   sessions table is the connection's own. *)
let session_of t conn (e : Cache.entry) =
  match Hashtbl.find_opt conn.sessions e.Cache.e_path with
  | Some (w, s) when w == e.Cache.e_wet ->
    Obs.incr c_sessions_reused;
    s
  | _ ->
    with_lock t.engine (fun () ->
        Hashtbl.filter_map_inplace
          (fun path ((w, _) as held) ->
            match Cache.peek t.cache path with
            | Some c when c.Cache.e_wet == w -> Some held
            | _ -> None)
          conn.sessions);
    let s =
      W.open_session ~tally:conn.tally ~recorder:conn.recorder
        e.Cache.e_wet
    in
    Hashtbl.replace conn.sessions e.Cache.e_path (e.Cache.e_wet, s);
    Obs.incr c_sessions_opened;
    s

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

let metrics_lines () =
  (* drop the split's trailing "" — the export ends with one newline *)
  match List.rev (String.split_on_char '\n' (Export.metrics_jsonl ())) with
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
             Ok (Render.trace (session_of t conn e) ~kind ~limit, Json.Obj [])))
  | P.Slice ->
    require_wet t req (fun e ->
        match opt_int_param req "output" with
        | Error _ as err -> err
        | Ok output ->
          Ok (Render.slice (session_of t conn e) ~output, Json.Obj []))
  | P.At ->
    require_wet t req (fun e ->
        match opt_int_param req "ts" with
        | Error _ as err -> err
        | Ok ts -> Ok (Render.at (session_of t conn e) ~ts, Json.Obj []))
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
  | P.Metrics -> Ok (metrics_lines (), Json.Obj [])
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

(* A request is counted and timed once, by its qprof context: the
   profile's wall is what [qprof.latency.<shape>], the qlog line and the
   ring's request span all carry. *)
let handle t conn req =
  let shape = shape_of req in
  let params =
    req.P.rq_params
    @ match req.P.rq_wet with None -> [] | Some w -> [ ("wet", w) ]
  in
  let start_ns = Clock.now_ns () in
  let res, profile =
    Qprof.run ~scope:conn.scope ~params shape (fun () -> answer t conn req)
  in
  (* the ring is the request span's one home *)
  Ring.push t.ring
    {
      Sink.ev_name = "serve." ^ P.verb_name req.P.rq_verb;
      ev_ts_ns = start_ns;
      ev_dur_ns = Some profile.Qprof.p_total.Qprof.c_wall_ns;
      ev_depth = 0;
      ev_attrs = [ ("conn", Sink.Int conn.id); ("id", Sink.Int req.P.rq_id) ];
    };
  (match t.cfg.qlog with
   | None -> ()
   | Some path ->
     with_lock t.qlog_lock (fun () ->
         try Qlog.append path profile
         with Sys_error m -> Log.error "cannot append access qlog: %s" m));
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
    Obs.incr c_errors;
    P.error_response ~id:req.P.rq_id msg
  | Error exn ->
    Obs.incr c_errors;
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
      Obs.add c_bytes_in (String.length line + 1);
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
              Obs.incr c_errors;
              Log.debug "conn %d: bad request: %s" conn.id msg;
              P.error_response ~id:0 msg
            | Ok req -> handle t conn req)
      in
      let out = P.encode_response resp in
      output_string oc out;
      output_char oc '\n';
      flush oc;
      Obs.add c_bytes_out (String.length out + 1);
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
  (* a closed connection leaves the list: its counts are already in the
     registry, and its sessions would pin their containers *)
  Fun.protect
    ~finally:(fun () ->
      Log.info "connection %d closed" conn.id;
      with_lock t.conns_lock (fun () ->
          t.conns <- List.filter (fun c -> c != conn) t.conns;
          Condition.broadcast t.conns_left;
          try Unix.close conn.fd with Unix.Unix_error _ -> ()))
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
  (* The path appears only once the socket listens: bind a temporary
     name beside it, listen, then rename it into place, so a client
     that connects as soon as the file exists is never refused. *)
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".%s.%d" (Filename.basename path) (Unix.getpid ()))
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    (try Unix.unlink tmp with Unix.Unix_error _ -> ());
    Unix.bind fd (Unix.ADDR_UNIX tmp);
    Unix.listen fd 64;
    Unix.rename tmp path
  with
  | () -> fd
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    (try Unix.unlink tmp with Unix.Unix_error _ -> ());
    Wet_error.fail Obs "cannot bind %s: %s" path (Unix.error_message e)

let run cfg =
  Sink.enable ();
  (* library spans (a cache miss's store.load) go nowhere: the ring
     holds request spans only, and the export buffer nothing *)
  Sink.buffering := false;
  let t =
    {
      cfg;
      cache = Cache.create ~capacity:cfg.cache_capacity ();
      ring = Ring.create ~capacity:cfg.ring_capacity ();
      t0_ns = Clock.now_ns ();
      engine = Mutex.create ();
      qlog_lock = Mutex.create ();
      conns_lock = Mutex.create ();
      conns = [];
      conns_left = Condition.create ();
      in_flight = 0;
      dom_active = Atomic.make 0;
      shutdown = false;
    }
  in
  let listen_fd = claim_socket cfg.socket in
  Log.info "serving on %s (cache %d, ring %d%s)" cfg.socket
    cfg.cache_capacity cfg.ring_capacity
    (match cfg.qlog with None -> "" | Some q -> ", qlog " ^ q);
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
         (* no handle is kept: shutdown waits on [t.conns] instead, so
            a closed connection leaves nothing behind *)
         if claim_domain_slot () then
           ignore
             (Domain.spawn (fun () ->
                  Fun.protect
                    ~finally:(fun () ->
                      ignore (Atomic.fetch_and_add t.dom_active (-1)))
                    (fun () -> serve_connection t conn)))
         else ignore (Thread.create (fun () -> serve_connection t conn) ());
         accept_loop ()
       end
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
   in
   accept_loop ();
   try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (* wake connection threads still blocked on idle clients (a shutdown
     half-close delivers EOF without racing the owner's own close), then
     wait until every connection has left the list *)
  with_lock t.conns_lock (fun () ->
      List.iter
        (fun c ->
          try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.conns;
      while t.conns <> [] do
        Condition.wait t.conns_left t.conns_lock
      done);
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  Sink.buffering := true;
  Log.info "serve: clean shutdown"
