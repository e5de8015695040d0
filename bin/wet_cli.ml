(* wet — command-line driver for the WET library.

   PROGRAM arguments accept either a path to a MiniC source file or the
   name of a bundled benchmark (e.g. "126.gcc" or just "gcc"). *)

open Cmdliner

module Spec = Wet_workloads.Spec
module Store = Wet_core.Store
module Container = Wet_core.Container
module Faultsim = Wet_faultsim.Faultsim
module Interp = Wet_interp.Interp
module W = Wet_core.Wet
module Builder = Wet_core.Builder
module Query = Wet_core.Query
module Slice = Wet_core.Slice
module Sizes = Wet_core.Sizes
module Table = Wet_report.Table
module Insight_report = Wet_insight.Report
module Insight_json = Wet_insight.Json
module Bench_obs = Wet_insight.Bench
module Metric_docs = Wet_insight.Metric_docs
module Obs_diff = Wet_insight.Obs_diff
module Obs_read = Wet_insight.Obs_read
module Reporter = Wet_obs.Reporter
module Journal = Wet_journal.Journal
module Checkpoint = Wet_core.Builder.Checkpoint
module Render = Wet_serve.Render
module Serve_protocol = Wet_serve.Protocol
module Serve_server = Wet_serve.Server
module Serve_client = Wet_serve.Client
module Serve_top = Wet_serve.Top

let is_wet_file name =
  Filename.check_suffix name ".wet"

let load_program name ~scale =
  match Spec.find name with
  | w ->
    let scale = Option.value scale ~default:w.Spec.default_scale in
    Ok (Spec.compile w, Spec.input w ~scale, w.Spec.name)
  | exception Not_found ->
    if Sys.file_exists name then begin
      let ic = open_in_bin name in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Wet_minic.Frontend.compile src with
      | Ok p -> Ok (p, [||], Filename.basename name)
      | Error m -> Error (`Msg m)
    end
    else
      Error
        (`Msg
           (Printf.sprintf
              "%s is neither a bundled benchmark nor a readable file" name))

let with_program ?(optimize = 0) name scale input f =
  match load_program name ~scale with
  | Error (`Msg m) -> `Error (false, m)
  | Ok (prog, winput, label) ->
    let prog = Wet_opt.Driver.optimize ~level:optimize prog in
    let input = if input = [] then winput else Array.of_list input in
    (match f prog input label with
     | () -> `Ok ()
     | exception Wet_error.Error e -> `Error (false, Wet_error.message e))

(* Exit codes: 0 success, 2 usage, 3 corrupt or salvage-degraded input
   (1 is left to analysis mismatches, e.g. [verify]). *)
let corrupt_exit path fault =
  Printf.eprintf "error: %s\n" (Store.corrupt_message ~path fault);
  exit 3

(* Commands operating on a WET accept either a saved [.wet] container or
   anything [load_program] accepts (built on the fly). On-the-fly builds
   stream interpreter events through the sharded sink, so no
   whole-execution trace is ever materialised. *)
let with_wet ?(optimize = 0) ?(tier2 = false) ?(salvage = false)
    ?shard_events name scale input f =
  if is_wet_file name then begin
    match Store.load ~salvage name with
    | wet -> (
      match f wet (Filename.basename name) with
      | () -> `Ok ()
      | exception Wet_error.Error e -> `Error (false, Wet_error.message e)
      | exception W.Missing_stream sec ->
        Printf.eprintf
          "error: %s: section '%s' was lost to a salvage load; this query \
           needs it\n"
          name sec;
        exit 3)
    | exception Store.Corrupt { path; fault } -> corrupt_exit path fault
    | exception (Invalid_argument m | Sys_error m) -> `Error (false, m)
  end
  else
    with_program ~optimize name scale input (fun p input label ->
        let wet = Builder.run_streaming ?shard_events ~program:p ~input () in
        let wet = if tier2 then Builder.pack wet else wet in
        f wet label)

(* ---------------- observability flags ---------------- *)

(* Every pipeline subcommand accepts [--metrics-out], [--trace-out],
   [--progress] and [--progress-out]; giving any arms the observation
   sink for the whole command. The files are written when the action
   finishes (even on error); progress renders live, driven by interp
   heartbeats and builder shard boundaries. *)

let metrics_out_arg =
  let doc = "Write a JSONL dump of all pipeline metrics to $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Write phase spans as a Chrome trace-event file to $(docv) (open in \
     chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Render a live status line on stderr while the pipeline runs \
     (statements, statement rate, shard count)."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let progress_out_arg =
  let doc =
    "Stream machine-readable JSONL heartbeats to $(docv) while the \
     pipeline runs (schema wet-obs/2)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "progress-out" ] ~docv:"FILE" ~doc)

let log_level_arg =
  let doc =
    "Minimum log severity printed on stderr: debug, info, warn or error. \
     Overrides the WET_LOG environment variable."
  in
  Arg.(
    value & opt (some string) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let log_out_arg =
  let doc =
    "Append every log line to $(docv) as JSONL objects with monotonic \
     timestamps (in addition to stderr)."
  in
  Arg.(value & opt (some string) None & info [ "log-out" ] ~docv:"FILE" ~doc)

type obs_opts = {
  o_metrics : string option;
  o_trace : string option;
  o_progress : bool;
  o_progress_out : string option;
  o_log_level : string option;
  o_log_out : string option;
}

let obs_term =
  Term.(
    const (fun m t p po ll lo ->
        {
          o_metrics = m;
          o_trace = t;
          o_progress = p;
          o_progress_out = po;
          o_log_level = ll;
          o_log_out = lo;
        })
    $ metrics_out_arg $ trace_out_arg $ progress_arg $ progress_out_arg
    $ log_level_arg $ log_out_arg)

(* Default heartbeat period when progress is requested but the caller
   did not pick one: frequent enough for a responsive status line, rare
   enough (every 50k statements) to stay off the profile. *)
let progress_heartbeat_default = 50_000

let with_obs o f =
  let progress = o.o_progress || o.o_progress_out <> None in
  if o.o_metrics <> None || o.o_trace <> None || progress then begin
    Wet_obs.Sink.enable ();
    Wet_obs.Metrics.reset ()
  end;
  let bad_level = ref None in
  (match o.o_log_level with
   | None -> ()
   | Some s ->
     (match Wet_obs.Log.level_of_string s with
      | Ok l -> Wet_obs.Log.threshold := l
      | Error m -> bad_level := Some m));
  let log_oc =
    match Option.map open_out o.o_log_out with
    | exception Sys_error m ->
      bad_level := Some ("cannot write log output: " ^ m);
      None
    | oc ->
      Wet_obs.Log.set_jsonl oc;
      oc
  in
  let close_log () =
    Wet_obs.Log.set_jsonl None;
    Option.iter close_out log_oc
  in
  match !bad_level with
  | Some m ->
    close_log ();
    `Error (false, m)
  | None ->
  let run_reported () =
    if not progress then f ()
    else begin
      match Option.map open_out o.o_progress_out with
      | exception Sys_error m ->
        `Error (false, "cannot write progress output: " ^ m)
      | oc ->
        let out =
          match oc with
          | Some oc -> Reporter.Jsonl oc
          | None -> Reporter.Tty
        in
        let reporter = Reporter.create out in
        Reporter.install reporter;
        let hb0 = !Wet_obs.Sink.heartbeat_every in
        if hb0 = 0 then
          Wet_obs.Sink.heartbeat_every := progress_heartbeat_default;
        Fun.protect
          ~finally:(fun () ->
            Reporter.finish reporter;
            Reporter.uninstall ();
            Wet_obs.Sink.heartbeat_every := hb0;
            Option.iter close_out oc)
          f
    end
  in
  let r = run_reported () in
  close_log ();
  (* An unwritable output path is a user error, not a crash. *)
  try
    Option.iter Wet_obs.Export.write_metrics_jsonl o.o_metrics;
    Option.iter Wet_obs.Export.write_chrome_trace o.o_trace;
    r
  with Sys_error m ->
    `Error (false, "cannot write observability output: " ^ m)

(* ---------------- query profiling (--analyze / --qlog-out) ------- *)

module Qprof = Wet_qprof.Qprof
module Qlog = Wet_qprof.Qlog

let analyze_arg =
  let doc =
    "Profile the command's query: report estimated vs. actual cursor \
     steps per stream class, with each class's streams, forward and \
     backward steps, seeks and direction switches; the exact cost vector \
     (wall, decode steps, direction switches, dictionary hit rate, stored \
     bits touched, allocation); the five busiest streams; and advisory \
     hints."
  in
  Arg.(value & flag & info [ "analyze" ] ~doc)

let qlog_out_arg =
  let doc =
    "Append the profiled query to $(docv) as one wet-qlog/1 JSONL line \
     (aggregate with `wet qlog report`)."
  in
  Arg.(value & opt (some string) None & info [ "qlog-out" ] ~docv:"FILE" ~doc)

type qprof_opts = { q_analyze : bool; q_qlog : string option }

let qprof_term =
  Term.(
    const (fun a q -> { q_analyze = a; q_qlog = q })
    $ analyze_arg $ qlog_out_arg)

let ns_ms ns = float_of_int ns /. 1e6

(* The table rendering lives in [Wet_serve.Render] so remote answers
   from the daemon are byte-identical to local ones. *)
let print_analyze wet (p : Qprof.profile) =
  List.iter print_endline (Render.analyze wet p)

(* A command's query (not the build: [with_wet] has already produced
   the WET when this runs) reads through one session and runs inside a
   profiling context over the session's tally and recorder, as each
   request of [wet serve] does. The context is the query's one count
   and latency: [qprof.latency.<shape>] under --metrics-out, the qlog
   line and the --analyze report all read its profile. *)
let with_session q ~shape ~params wet f =
  let s = W.open_session wet in
  let scope =
    Qprof.make_scope ~tally:(W.Session.tally s)
      ~recorder:(W.Session.recorder s) ()
  in
  let res, prof = Qprof.run ~scope ~params shape (fun () -> f s) in
  (match q.q_qlog with
   | None -> ()
   | Some path -> (
     try Qlog.append path prof
     with Sys_error m ->
       Printf.eprintf "error: cannot write qlog: %s\n" m;
       exit 2));
  if q.q_analyze then print_analyze wet prof;
  match res with Ok v -> v | Error e -> raise e

(* ---------------- remote queries (wet serve client) ---------------- *)

let remote_arg =
  let doc =
    "Answer the query through a running `wet serve` daemon listening on \
     Unix socket $(docv) instead of loading the container in this \
     process. PROGRAM must then be a .wet container path (the daemon \
     keeps it resident across requests)."
  in
  Arg.(value & opt (some string) None & info [ "remote" ] ~docv:"SOCKET" ~doc)

(* The first flag given that observes this process, which a remote
   query does not run in. *)
let local_obs_flag o =
  List.find_map
    (fun (given, flag) -> if given then Some flag else None)
    [
      (o.o_metrics <> None, "--metrics-out");
      (o.o_trace <> None, "--trace-out");
      (o.o_progress, "--progress");
      (o.o_progress_out <> None, "--progress-out");
      (o.o_log_out <> None, "--log-out");
    ]

(* One round-trip: the response's [lines] are exactly what the local
   code path would have printed, so emitting them with [print_endline]
   keeps remote and local output byte-identical. Flags that would
   observe this process are refused, not dropped. *)
let remote_query ~socket ~obs ~qp ~prog verb params =
  match (qp.q_qlog, local_obs_flag obs) with
  | Some _, _ ->
    `Error
      ( true,
        "--qlog-out is local; the daemon appends its own access log \
         (wet serve --qlog)" )
  | None, Some flag ->
    `Error
      ( true,
        flag
        ^ " is local; read the daemon's instruments with its metrics verb \
           or `wet top SOCKET`" )
  | None, None when not (is_wet_file prog) ->
    `Error (true, "--remote queries name a saved .wet container path")
  | None, None -> (
    match
      Serve_client.call ~socket
        (Serve_protocol.request ~id:1 ~wet:prog ~params
           ~analyze:qp.q_analyze verb)
    with
    | Error m -> `Error (false, m)
    | Ok r when not r.Serve_protocol.rs_ok ->
      `Error
        ( false,
          Option.value r.Serve_protocol.rs_error ~default:"request failed" )
    | Ok r ->
      List.iter print_endline r.Serve_protocol.rs_lines;
      `Ok ())

(* ---------------- arguments ---------------- *)

let program_arg =
  let doc = "MiniC source file or bundled benchmark name." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let scale_arg =
  let doc = "Workload scale (bundled benchmarks only)." in
  Arg.(value & opt (some int) None & info [ "scale" ] ~docv:"N" ~doc)

let input_arg =
  let doc = "Input stream for the program (overrides workload inputs)." in
  Arg.(value & opt (list int) [] & info [ "input" ] ~docv:"INTS" ~doc)

let tier2_arg =
  let doc = "Also apply tier-2 (bidirectional stream) compression." in
  Arg.(value & flag & info [ "tier2" ] ~doc)

let optimize_arg =
  let doc = "Optimisation level applied before running (0 or 1)." in
  Arg.(value & opt int 0 & info [ "O"; "optimize" ] ~docv:"LEVEL" ~doc)

let shard_events_arg =
  let doc =
    "When building on the fly: buffer at most $(docv) raw interpreter \
     events before compressing a shard (default 65536). Smaller shards \
     lower peak memory; the resulting WET is identical either way."
  in
  Arg.(value & opt (some int) None & info [ "shard-events" ] ~docv:"N" ~doc)

(* ---------------- run ---------------- *)

let run_cmd =
  let action obs prog scale input optimize =
    with_obs obs @@ fun () ->
    with_program ~optimize prog scale input (fun p input _ ->
        let out = Interp.outputs_only p ~input in
        Array.iter (Printf.printf "%d\n") out)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a program and print its outputs.")
    Term.(
      ret (const action $ obs_term $ program_arg $ scale_arg $ input_arg
           $ optimize_arg))

(* ---------------- stats ---------------- *)

let stats_cmd =
  let json_arg =
    let doc = "Emit the full report as one JSON document instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let salvage_arg =
    let doc =
      "When PROGRAM is a damaged .wet container, salvage the intact \
       sections and report on what survives (exit 3)."
    in
    Arg.(value & flag & info [ "salvage" ] ~doc)
  in
  let action obs shard_events prog scale input tier2 json salvage =
    with_obs obs @@ fun () ->
    with_wet ~tier2 ~salvage ?shard_events prog scale input
      (fun wet label ->
        let report = Insight_report.of_wet ~label wet in
        if json then
          print_endline (Insight_json.to_string (Insight_report.to_json report))
        else begin
          let s = wet.W.stats in
          Printf.printf "program: %s\n" label;
          Printf.printf "basic block executions: %d\n" s.W.block_execs;
          Printf.printf "Ball-Larus path executions: %d\n" s.W.path_execs;
          Printf.printf "distinct executed paths (WET nodes): %d\n"
            (Array.length wet.W.nodes);
          Printf.printf "statement copies: %d\n" (W.num_copies wet);
          Printf.printf "dependence instances: %d (data) + %d (control)\n"
            s.W.dep_instances s.W.cd_instances;
          Printf.printf "  inferable from node labels (no edge stored): %d\n"
            s.W.local_dep_instances;
          Printf.printf "  label values shared across identical edges: %d\n"
            s.W.shared_label_values;
          Insight_report.print report
        end;
        (* the paper-style report on a salvaged WET is still degraded
           input: keep the exit-code contract (3 = corrupt/salvaged) *)
        if wet.W.damage <> [] then exit 3)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Report sizes, per-stream compression and telemetry for a WET \
          (built on the fly or loaded from a .wet container).")
    Term.(
      ret (const action $ obs_term $ shard_events_arg $ program_arg
           $ scale_arg $ input_arg $ tier2_arg $ json_arg $ salvage_arg))

(* ---------------- trace ---------------- *)

let trace_kind =
  let kinds =
    [ ("cf", `Cf); ("values", `Values); ("addresses", `Addresses) ]
  in
  let doc = "Trace to extract: cf, values or addresses." in
  Arg.(value & opt (enum kinds) `Cf & info [ "kind" ] ~docv:"KIND" ~doc)

let limit_arg =
  let doc = "Print at most N entries." in
  Arg.(value & opt int 50 & info [ "limit" ] ~docv:"N" ~doc)

let trace_cmd =
  let action obs shard_events qp remote prog scale input kind limit =
    let kind_name, render_kind =
      match kind with
      | `Cf -> ("cf", Render.Cf)
      | `Values -> ("values", Render.Values)
      | `Addresses -> ("addresses", Render.Addresses)
    in
    match remote with
    | Some socket ->
      remote_query ~socket ~obs ~qp ~prog Serve_protocol.Trace
        [ ("kind", kind_name); ("limit", string_of_int limit) ]
    | None ->
      with_obs obs @@ fun () ->
      with_wet ?shard_events prog scale input (fun wet _ ->
          with_session qp ~shape:("trace/" ^ kind_name)
            ~params:[ ("limit", string_of_int limit) ]
            wet
          @@ fun s ->
          List.iter print_endline (Render.trace s ~kind:render_kind ~limit))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Extract a control-flow, load-value or address trace from the WET.")
    Term.(
      ret (const action $ obs_term $ shard_events_arg $ qprof_term
           $ remote_arg $ program_arg $ scale_arg $ input_arg
           $ trace_kind $ limit_arg))

(* ---------------- slice ---------------- *)

let slice_cmd =
  let output_arg =
    let doc =
      "Slice criterion: the K-th output statement execution (0-based, \
       default: the last output)."
    in
    Arg.(value & opt (some int) None & info [ "output" ] ~docv:"K" ~doc)
  in
  let action obs shard_events qp remote prog scale input k =
    match remote with
    | Some socket ->
      remote_query ~socket ~obs ~qp ~prog Serve_protocol.Slice
        (match k with
         | Some k -> [ ("output", string_of_int k) ]
         | None -> [])
    | None ->
      with_obs obs @@ fun () ->
      with_wet ?shard_events prog scale input (fun wet _ ->
          with_session qp ~shape:"slice/backward"
            ~params:
              [
                ( "output",
                  match k with Some k -> string_of_int k | None -> "last" );
              ]
            wet
          @@ fun s -> List.iter print_endline (Render.slice s ~output:k))
  in
  Cmd.v
    (Cmd.info "slice" ~doc:"Compute a backward WET slice of an output value.")
    Term.(
      ret (const action $ obs_term $ shard_events_arg $ qprof_term
           $ remote_arg $ program_arg $ scale_arg $ input_arg
           $ output_arg))

(* ---------------- paths ---------------- *)

let paths_cmd =
  let top_arg =
    let doc = "Show the N hottest paths." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let action obs shard_events qp remote prog scale input top =
    match remote with
    | Some socket ->
      remote_query ~socket ~obs ~qp ~prog Serve_protocol.Paths
        [ ("top", string_of_int top) ]
    | None ->
      with_obs obs @@ fun () ->
      with_wet ?shard_events prog scale input (fun wet _ ->
          with_session qp ~shape:"paths"
            ~params:[ ("top", string_of_int top) ]
            wet
          @@ fun _ -> List.iter print_endline (Render.paths wet ~top))
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Profile Ball-Larus paths (hot path mining).")
    Term.(
      ret (const action $ obs_term $ shard_events_arg $ qprof_term
           $ remote_arg $ program_arg $ scale_arg $ input_arg $ top_arg))

(* ---------------- build (persist a WET) ---------------- *)

let build_cmd =
  let out_arg =
    let doc = "Output path for the WET container." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  (* PROGRAM is positional-required everywhere else, but [--resume]
     carries the program inside the journal header, so here it is
     optional and validated by hand. *)
  let prog_opt_arg =
    let doc =
      "MiniC source file or bundled benchmark name. Omitted when resuming \
       from a checkpoint journal."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Make the build durable: journal a CRC'd, fsync'd checkpoint to \
       $(docv) at every shard boundary, so a build killed at any point \
       is resumable with $(b,--resume) and finishes byte-identical to an \
       uninterrupted one."
    in
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"JOURNAL" ~doc)
  in
  let checkpoint_every_arg =
    let doc =
      "Checkpoint every $(docv)-th shard flush instead of every one — \
       cheaper journaling, more re-execution after a crash."
    in
    Arg.(value & opt int 1 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let kill_arg =
    let doc =
      "Kill-campaign hook: die deterministically at the seeded point \
       ($(b,kill:shard:N) after the N-th shard checkpoint is durable, \
       $(b,kill:byte:N) N bytes into the checkpoint stream, mid-record). \
       Exits 70. Requires $(b,--checkpoint)."
    in
    Arg.(value & opt (some string) None & info [ "kill" ] ~docv:"SPEC" ~doc)
  in
  let resume_arg =
    let doc =
      "Recover an interrupted checkpointed build from $(docv): restore \
       the last intact checkpoint (a torn tail is truncated, never \
       trusted), re-execute deterministically up to its watermark and \
       finish the build. The program, input and build configuration come \
       from the journal header."
    in
    Arg.(
      value & opt (some string) None & info [ "resume" ] ~docv:"JOURNAL" ~doc)
  in
  let print_saved label (wet : W.t) out =
    Printf.printf "%s: %d statements -> %s (%s, %.2f MB on disk)\n" label
      wet.W.stats.W.stmts_executed out
      (match wet.W.tier with `Tier2 -> "tier-2" | `Tier1 -> "tier-1")
      (float_of_int (Unix.stat out).Unix.st_size /. 1024. /. 1024.)
  in
  let checkpointed_build ~journal ~checkpoint_every ~kill ~shard_events
      ~tier2 ~optimize prog scale input out =
    with_program ~optimize prog scale input (fun p input label ->
        let on_header_written () =
          match kill with
          | Some (Faultsim.Kill_at_shard n) ->
            Journal.kill_after_records := Some n
          | Some (Faultsim.Kill_at_byte b) ->
            Journal.kill_after_bytes := Some b
          | None -> ()
        in
        let wet =
          Checkpoint.build ?shard_events ~checkpoint_every ~tier2 ~label
            ~on_header_written ~journal ~program:p ~input ()
        in
        let wet = if tier2 then Builder.pack wet else wet in
        Store.save wet out;
        print_saved label wet out;
        Printf.printf "checkpoint journal: %s\n" journal)
  in
  let action obs shard_events prog scale input tier2 optimize out checkpoint
      checkpoint_every kill resume =
    with_obs obs @@ fun () ->
    match (resume, prog) with
    | Some _, Some _ ->
      `Error (true, "--resume reads the program from the journal; drop the \
                     PROGRAM argument")
    | Some journal, None -> (
      match Checkpoint.resume ~journal () with
      | r ->
        let header = r.Checkpoint.r_header in
        let wet =
          if header.Checkpoint.h_tier2 then Builder.pack r.Checkpoint.r_wet
          else r.Checkpoint.r_wet
        in
        Store.save wet out;
        Printf.printf
          "resumed %s: fast-forwarded %d checkpointed shard%s in %.1f ms%s\n"
          journal r.Checkpoint.r_replayed_shards
          (if r.Checkpoint.r_replayed_shards = 1 then "" else "s")
          r.Checkpoint.r_resume_ms
          (if r.Checkpoint.r_torn_tail then " (torn tail truncated)" else "");
        print_saved header.Checkpoint.h_label wet out;
        `Ok ()
      | exception Wet_error.Error e -> `Error (false, Wet_error.message e))
    | None, None ->
      `Error (true, "a PROGRAM argument (or --resume JOURNAL) is required")
    | None, Some prog -> (
      match checkpoint with
      | None ->
        if kill <> None then `Error (true, "--kill requires --checkpoint")
        else
          with_program ~optimize prog scale input (fun p input label ->
              let wet =
                Builder.run_streaming ?shard_events ~program:p ~input ()
              in
              let wet = if tier2 then Builder.pack wet else wet in
              Store.save wet out;
              print_saved label wet out)
      | Some journal -> (
        match
          match kill with
          | None -> Ok None
          | Some s -> Result.map Option.some (Faultsim.kill_of_spec s)
        with
        | Error m -> `Error (true, m)
        | Ok kill -> (
          try
            checkpointed_build ~journal
              ~checkpoint_every:(max 1 checkpoint_every) ~kill ~shard_events
              ~tier2 ~optimize prog scale input out
          with Journal.Kill_injected ->
            (* the campaign's stand-in for [kill -9]: no cleanup, no
               output container — only the journal survives *)
            Printf.eprintf
              "wet: build killed by injected fault (%s); journal %s retained \
               for --resume\n"
              (Option.fold ~none:"-" ~some:Faultsim.kill_to_spec kill)
              journal;
            exit 70)))
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Build a WET, streaming the interpreter's events through the \
          sharded sink, and save it to disk for later queries. With \
          --checkpoint/--resume the build survives being killed at any \
          point.")
    Term.(
      ret (const action $ obs_term $ shard_events_arg $ prog_opt_arg $ scale_arg
           $ input_arg $ tier2_arg $ optimize_arg $ out_arg $ checkpoint_arg
           $ checkpoint_every_arg $ kill_arg $ resume_arg))

(* ---------------- verify ---------------- *)

let verify_cmd =
  let action obs prog scale input tier2 =
    with_obs obs @@ fun () ->
    with_program prog scale input (fun p input label ->
        let wet = Builder.run_streaming ~program:p ~input () in
        let wet = if tier2 then Builder.pack wet else wet in
        (* the reference: a separate run that materialises the raw trace *)
        let tr = (Interp.run p ~input).Interp.trace in
        let module T = Wet_interp.Trace in
        (* the WET must regenerate the exact control-flow trace *)
        let s = W.open_session wet in
        Query.Session.park s Query.Forward;
        let i = ref 0 in
        let ok = ref true in
        let blocks = tr.T.blocks in
        let n =
          Query.Session.control_flow s Query.Forward ~f:(fun f b ->
              if !i < Array.length blocks && blocks.(!i) <> T.encode_block f b
              then ok := false;
              incr i)
        in
        if n <> Array.length blocks then ok := false;
        (* and every stored value: a path execution of the raw trace is
           the next instance of the node of its (func, path), each
           def-bearing copy of which must read back the trace's value *)
        let node_of = Hashtbl.create 64 in
        Array.iter
          (fun (n : W.node) ->
            Hashtbl.replace node_of (n.W.n_func, n.W.n_path) n)
          wet.W.nodes;
        let inst = Array.make (Array.length wet.W.nodes) 0 in
        let pos = ref 0 and wrong = ref 0 in
        Array.iter
          (fun key ->
            match Hashtbl.find_opt node_of (T.decode_path key) with
            | None -> incr wrong
            | Some n ->
              Array.iteri
                (fun o _ ->
                  let c = n.W.n_copy_base + o in
                  if wet.W.copy_uvals.(c) <> None
                     && W.Session.value_of_copy s c inst.(n.W.n_id)
                        <> tr.T.values.(!pos)
                  then incr wrong;
                  incr pos)
                n.W.n_stmts;
              inst.(n.W.n_id) <- inst.(n.W.n_id) + 1)
          tr.T.paths;
        let verdict ok = if ok then "EXACT" else "MISMATCH" in
        Printf.printf
          "%s: control-flow trace %s (%d block executions); values %s (%d \
           def executions, %d wrong)\n"
          label (verdict !ok) n
          (verdict (!wrong = 0))
          wet.W.stats.W.def_execs !wrong;
        if not (!ok && !wrong = 0) then exit 1)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
        "Self-check: build the WET, check that it regenerates the control-flow \
         trace of a separate raw-trace run exactly, and that every value \
         it stores reads back as that run recorded it.")
    Term.(
      ret (const action $ obs_term $ program_arg $ scale_arg $ input_arg
           $ tier2_arg))

(* ---------------- at (execution-point inspection) ---------------- *)

let at_cmd =
  let ts_arg =
    let doc = "Global timestamp to inspect (default: the midpoint)." in
    Arg.(value & opt (some int) None & info [ "ts" ] ~docv:"T" ~doc)
  in
  let action obs shard_events qp remote prog scale input ts =
    match remote with
    | Some socket ->
      remote_query ~socket ~obs ~qp ~prog Serve_protocol.At
        (match ts with
         | Some ts -> [ ("ts", string_of_int ts) ]
         | None -> [])
    | None ->
      with_obs obs @@ fun () ->
      with_wet ?shard_events prog scale input (fun wet _ ->
          let total = wet.W.stats.W.path_execs in
          let ts = Option.value ts ~default:(max 1 (total / 2)) in
          with_session qp ~shape:"at"
            ~params:[ ("ts", string_of_int ts) ]
            wet
          @@ fun s -> List.iter print_endline (Render.at s ~ts:(Some ts)))
  in
  Cmd.v
    (Cmd.info "at"
       ~doc:"Inspect an arbitrary execution point: location, control flow \
             and reconstructed global state.")
    Term.(
      ret (const action $ obs_term $ shard_events_arg $ qprof_term
           $ remote_arg $ program_arg $ scale_arg $ input_arg
           $ ts_arg))

(* ---------------- dot ---------------- *)

let dot_cmd =
  let what_arg =
    let doc = "What to export: 'nodes' (the path-node graph) or 'slice' \
               (the last output's backward slice subgraph)." in
    Arg.(value & opt (enum [ ("nodes", `Nodes); ("slice", `Slice) ]) `Nodes
         & info [ "what" ] ~docv:"KIND" ~doc)
  in
  let action obs shard_events prog scale input what =
    with_obs obs @@ fun () ->
    with_wet ?shard_events prog scale input (fun wet _ ->
        match what with
        | `Nodes -> print_string (Wet_analyses.Dot_export.nodes wet)
        | `Slice -> (
          match
            Query.copies_matching wet (function
              | Wet_ir.Instr.Output _ -> true
              | _ -> false)
          with
          | [] -> prerr_endline "program has no outputs to slice"
          | c :: _ ->
            print_string
              (Wet_analyses.Dot_export.slice (W.open_session wet) c 0)))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export WET structure as Graphviz.")
    Term.(
      ret (const action $ obs_term $ shard_events_arg $ program_arg
           $ scale_arg $ input_arg $ what_arg))

(* ---------------- profile ---------------- *)

(* Run the whole pipeline under the observation sink — interpret into
   the tier-1 build, pack tier-2, save/load a container, one query of
   every kind — then print a phase summary and the packed WET's
   per-stream table. [--metrics-out] / [--trace-out] dump the raw data
   the phase summary is derived from. *)

let profile_cmd =
  let phase_row name =
    let evs = Wet_obs.Sink.events () in
    match
      List.find_opt
        (fun (e : Wet_obs.Sink.event) ->
          e.Wet_obs.Sink.ev_name = name && e.Wet_obs.Sink.ev_dur_ns <> None)
        evs
    with
    | None -> None
    | Some e ->
      let dur_ms =
        match e.Wet_obs.Sink.ev_dur_ns with
        | Some d -> float_of_int d /. 1e6
        | None -> 0.
      in
      let alloc_mw =
        match List.assoc_opt "alloc_minor_words" e.Wet_obs.Sink.ev_attrs with
        | Some (Wet_obs.Sink.Float w) -> w /. 1e6
        | _ -> 0.
      in
      Some [ name; Printf.sprintf "%.2f" dur_ms; Printf.sprintf "%.2f" alloc_mw ]
  in
  let opt_program_arg =
    let doc =
      "MiniC source file or bundled benchmark name. With --list-metrics, \
       an optional instrument-name prefix instead (e.g. `wet profile \
       --list-metrics qprof`)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)
  in
  let list_metrics_arg =
    let doc =
      "List every instrument the pipeline registers with the \
       observability sink, with one-line descriptions, and exit. A \
       positional argument filters by name prefix."
    in
    Arg.(value & flag & info [ "list-metrics" ] ~doc)
  in
  (* All library modules are linked into this binary, so their top-level
     instrument registrations have already run: the live registry is
     complete without executing anything. *)
  let list_metrics prefix =
    let keep name =
      match prefix with
      | None -> true
      | Some p -> String.starts_with ~prefix:p name
    in
    let rows =
      List.filter_map
        (fun (name, reading) ->
          if not (keep name) then None
          else
            Some
              [
                name;
                Obs_read.kind reading;
                Option.value (Metric_docs.lookup name)
                  ~default:"UNDOCUMENTED (add to Metric_docs.docs)";
              ])
        (Wet_obs.Metrics.snapshot ())
    in
    let families =
      List.filter_map
        (fun (name, kind, desc) ->
          if String.contains name '<' && keep name then
            Some [ name; Metric_docs.kind_name kind; desc ]
          else None)
        Metric_docs.docs
    in
    if rows = [] && families = [] then
      Printf.printf "no registered instrument matches prefix '%s'\n"
        (Option.value prefix ~default:"")
    else begin
      if rows <> [] then
        Table.print ~title:"Registered instruments."
          ~align:Table.[ Left; Left; Left ]
          ~header:[ "Name"; "Kind"; "Description" ]
          rows;
      if families <> [] then
        Table.print
          ~title:"Dynamically registered families (appear once instantiated)."
          ~align:Table.[ Left; Left; Left ]
          ~header:[ "Pattern"; "Kind"; "Description" ]
          families
    end;
    `Ok ()
  in
  let action obs prog scale input optimize list_metrics_flag =
    with_obs obs @@ fun () ->
    if list_metrics_flag then list_metrics prog
    else
    match prog with
    | None ->
      `Error (true, "required argument PROGRAM is missing (or --list-metrics)")
    | Some prog ->
    Wet_obs.Sink.enable ();
    Wet_obs.Metrics.reset ();
    with_program ~optimize prog scale input (fun p input label ->
        let w2 =
          Wet_obs.Span.with_ "profile"
            ~attrs:[ ("program", Wet_obs.Span.Str label) ]
            (fun () ->
              let w1 = Builder.run_streaming ~program:p ~input () in
              let w2 = Builder.pack w1 in
              let tmp = Filename.temp_file "wet_profile" ".wet" in
              Fun.protect
                ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
                (fun () ->
                  Store.save w2 tmp;
                  ignore (Store.load tmp));
              Wet_obs.Span.with_ "profile.queries" (fun () ->
                  let s = W.open_session w2 in
                  Query.Session.park s Query.Forward;
                  ignore
                    (Query.Session.control_flow s Query.Forward
                       ~f:(fun _ _ -> ()));
                  ignore (Query.Session.load_values s ~f:(fun _ _ -> ()));
                  ignore (Query.Session.addresses s ~f:(fun _ _ -> ()));
                  match
                    Query.copies_matching w2 (fun i -> Wet_ir.Instr.has_def i)
                  with
                  | c :: _ ->
                    ignore
                      (Slice.Session.backward s c
                         ((W.node_of_copy w2 c).W.n_nexec - 1))
                  | [] -> ());
              w2)
        in
        (* phase summary, derived from the recorded spans *)
        let rows =
          List.filter_map phase_row
            [
              "interp.run"; "build.stream"; "build.tier2"; "store.save";
              "store.load"; "profile.queries"; "profile";
            ]
        in
        Table.print
          ~title:(Printf.sprintf "Pipeline phases (%s)." label)
          ~align:Table.[ Left; Right; Right ]
          ~header:[ "Phase"; "Wall (ms)"; "Minor alloc (Mwords)" ]
          rows;
        (* the packed WET's per-stream table, read off the WET as `wet
           stats` reads it: method mix, bits and ratio against raw *)
        let report = Insight_report.of_wet ~label w2 in
        Insight_report.print report;
        let classes = report.Insight_report.rp_detail.Sizes.d_classes in
        let count f = List.fold_left (fun n c -> n + f c) 0 classes in
        Printf.printf
          "%s: %d statements, %d path nodes, %d/%d streams left raw by \
           tier-2 selection\n"
          label w2.W.stats.W.stmts_executed (Array.length w2.W.nodes)
          (count (fun c ->
               Option.value (List.assoc_opt "raw" c.Sizes.sc_methods)
                 ~default:0))
          (count (fun c -> c.Sizes.sc_streams)))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the full pipeline under the observability sink and report \
          per-phase wall/allocation numbers and the packed WET's \
          per-stream table, or list \
          the registered instruments with --list-metrics.")
    Term.(
      ret (const action $ obs_term $ opt_program_arg $ scale_arg $ input_arg
           $ optimize_arg $ list_metrics_arg))

(* ---------------- watch ---------------- *)

let watch_cmd =
  let module Watch = Wet_watch.Watch in
  let module Event = Wet_watch.Event in
  let module Ring = Wet_watch.Ring in
  let filter_arg =
    let doc =
      "Filter specification, e.g. 'store & fn=main & addr in \
       [0x100,0x1ff]'. Kinds: entry def use load store call; atoms: \
       fn=NAME, block=N, val=N, val in [a,b], addr=N, addr in [a,b]; \
       combinators: '&' '|' '!' parentheses and 'any'."
    in
    Arg.(
      required & opt (some string) None & info [ "filter" ] ~docv:"SPEC" ~doc)
  in
  let ring_arg =
    let doc =
      "Flight-recorder capacity: retain the last $(docv) recorded matches."
    in
    Arg.(value & opt int 16 & info [ "ring" ] ~docv:"N" ~doc)
  in
  let sample_arg =
    let doc = "Record only one in $(docv) matches." in
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"N" ~doc)
  in
  let stop_arg =
    let doc =
      "Watchpoint: remember the $(docv)-th match's global timestamp and \
       locate it in the built WET."
    in
    Arg.(value & opt (some int) None & info [ "stop-at" ] ~docv:"K" ~doc)
  in
  let count_arg =
    let doc = "Count matches only (no flight recorder)." in
    Arg.(value & flag & info [ "count-only" ] ~doc)
  in
  let jsonl_arg =
    let doc = "Export the retained matching events as JSON lines to $(docv)." in
    Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc)
  in
  let action obs prog scale input optimize fspec ring sample stop count_only
      jsonl =
    with_obs obs @@ fun () ->
    match Wet_watch.Spec.parse fspec with
    | Error m -> `Error (false, "bad --filter: " ^ m)
    | Ok filter -> (
      let act =
        match (count_only, stop, sample) with
        | true, None, None -> Ok Watch.Count
        | false, Some k, None -> Ok (Watch.Stop_at k)
        | false, None, Some n -> Ok (Watch.Sample n)
        | false, None, None -> Ok Watch.Capture
        | _ ->
          Error "--count-only, --sample and --stop-at are mutually exclusive"
      in
      match act with
      | Error m -> `Error (false, m)
      | Ok act -> (
        try
          with_program ~optimize prog scale input (fun p input label ->
              let probe = Watch.probe ~ring p filter act in
              let t0 = Wet_obs.Clock.now_ns () in
              let res =
                Watch.with_armed [ probe ] (fun () -> Interp.run p ~input)
              in
              let matched = Watch.matches probe in
              Printf.printf "%s: %d statements executed, %d events matched '%s'\n"
                label res.Interp.stmts_executed matched
                (Wet_watch.Spec.print filter);
              let fn_name f = p.Wet_ir.Program.funcs.(f).Wet_ir.Func.name in
              (match Watch.ring probe with
               | None -> ()
               | Some r when Ring.length r = 0 ->
                 print_endline "flight recorder: no matches recorded"
               | Some r ->
                 let rows =
                   List.map
                     (fun ((e : Event.t), wall) ->
                       [
                         string_of_int e.Event.e_ts;
                         Table.ms (wall - t0);
                         Event.kind_name e.Event.e_kind;
                         Printf.sprintf "%s:B%d" (fn_name e.Event.e_func)
                           e.Event.e_block;
                         string_of_int e.Event.e_pos;
                         (if Event.has_value e.Event.e_kind then
                            string_of_int e.Event.e_value
                          else "-");
                         (if Event.has_addr e.Event.e_kind then
                            Table.hex e.Event.e_addr
                          else "-");
                       ])
                     (Ring.to_list r)
                 in
                 Table.print
                   ~title:
                     (Printf.sprintf
                        "Flight recorder: last %d of %d recorded matches."
                        (Ring.length r) (Ring.total r))
                   ~align:Table.[ Right; Right; Left; Left; Right; Right; Right ]
                   ~header:[ "t"; "+ms"; "Kind"; "Site"; "Pos"; "Value"; "Addr" ]
                   rows);
              (match jsonl with
               | None -> ()
               | Some path -> (
                 match Watch.ring probe with
                 | None ->
                   prerr_endline "--jsonl ignored: --count-only retains no events"
                 | Some r ->
                   let oc = open_out_bin path in
                   Fun.protect
                     ~finally:(fun () -> close_out oc)
                     (fun () ->
                       List.iter
                         (fun ((e : Event.t), wall) ->
                           Printf.fprintf oc
                             "{\"ts\":%d,\"wall_ns\":%d,\"kind\":%S,\"fn\":%S,\"block\":%d,\"pos\":%d,\"value\":%d,\"addr\":%d}\n"
                             e.Event.e_ts (wall - t0)
                             (Event.kind_name e.Event.e_kind)
                             (fn_name e.Event.e_func) e.Event.e_block
                             e.Event.e_pos e.Event.e_value e.Event.e_addr)
                         (Ring.to_list r));
                   Printf.printf "wrote %d events to %s\n" (Ring.length r) path));
              match act with
              | Watch.Stop_at k -> (
                match Watch.stopped probe with
                | None ->
                  Printf.printf "watchpoint: fewer than %d matches (%d total)\n"
                    k matched
                | Some ts -> (
                  let wet = Builder.run_streaming ~program:p ~input () in
                  match
                    Query.Session.locate_time (W.open_session wet) ts
                  with
                  | None -> Printf.printf "watchpoint t=%d: not locatable\n" ts
                  | Some (nid, i) ->
                    let n = wet.W.nodes.(nid) in
                    Printf.printf
                      "watchpoint: match #%d at t=%d -> execution %d of \
                       f%d/path%d (blocks %s)\n"
                      k ts i n.W.n_func n.W.n_path
                      (String.concat " "
                         (Array.to_list
                            (Array.map (Printf.sprintf "B%d") n.W.n_blocks)));
                    Printf.printf "  inspect it with: wet at %s --ts %d\n" prog
                      ts))
              | _ -> ())
        with
        | Wet_watch.Filter.Unknown_function fn ->
          `Error
            (false, Printf.sprintf "filter: no function named %S in program" fn)
        | Invalid_argument m -> `Error (false, m)
        | Sys_error m -> `Error (false, m)))
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Run a program under the tracer driver: count, sample or \
          flight-record the events matching a declarative filter, with an \
          optional watchpoint located in the built WET.")
    Term.(
      ret (const action $ obs_term $ program_arg $ scale_arg $ input_arg
           $ optimize_arg $ filter_arg $ ring_arg $ sample_arg $ stop_arg
           $ count_arg $ jsonl_arg))

(* ---------------- fsck ---------------- *)

(* Container integrity checking. Prints a per-section health table, then
   (on a clean file) a strict decode plus the structural validator, or
   (with --salvage, on a damaged file) a salvage report. Exit 0 only
   when the container is fully intact and structurally sound. *)

let fsck_cmd =
  let file_arg =
    let doc = "The WET container to check." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let salvage_arg =
    let doc =
      "On a damaged file, attempt a salvage load: report which sections \
       survive and run the structural validator on the result."
    in
    Arg.(value & flag & info [ "salvage" ] ~doc)
  in
  let inject_arg =
    let doc =
      "Corrupt the container bytes in memory before checking (repeatable, \
       applied in order; the file on disk is untouched). $(docv) is \
       flip:OFF:BIT, zero:OFF:LEN, or trunc:LEN."
    in
    Arg.(value & opt_all string [] & info [ "inject" ] ~docv:"SPEC" ~doc)
  in
  let gc_arg =
    let doc =
      "Remove the orphaned save temps reported by the sweep (staging \
       files a crashed save stranded next to $(i,FILE))."
    in
    Arg.(value & flag & info [ "gc" ] ~doc)
  in
  let status_cell = function
    | None -> "ok"
    | Some (Container.Bad_section _) -> "CORRUPT (crc mismatch)"
    | Some (Container.Truncated _) -> "CORRUPT (truncated)"
    | Some f -> "CORRUPT (" ^ Container.fault_message f ^ ")"
  in
  let health_table path (h : Container.health) =
    let rows =
      List.map
        (fun (s : Container.section_status) ->
          [
            s.Container.sec_name;
            (if Container.required s.Container.sec_name then "yes" else "no");
            string_of_int s.Container.sec_offset;
            string_of_int s.Container.sec_length;
            Printf.sprintf "0x%08x" s.Container.sec_crc;
            status_cell s.Container.sec_fault;
          ])
        h.Container.hl_sections
      @ [
          [
            "(footer)"; "yes"; "-"; "-"; "-";
            (match h.Container.hl_footer with
             | None -> "ok"
             | Some (Container.Bad_footer _) -> "CORRUPT (crc mismatch)"
             | Some f -> status_cell (Some f));
          ];
        ]
    in
    Table.print
      ~title:
        (Printf.sprintf "%s: container v%d, %s, %d bytes." path
           h.Container.hl_version
           (match h.Container.hl_tier with
            | `Tier1 -> "tier-1"
            | `Tier2 -> "tier-2")
           h.Container.hl_file_bytes)
      ~align:Table.[ Left; Left; Right; Right; Right; Left ]
      ~header:[ "Section"; "Required"; "Offset"; "Bytes"; "CRC-32"; "Status" ]
      rows
  in
  let first_fault (h : Container.health) =
    match
      List.find_opt
        (fun (s : Container.section_status) -> s.Container.sec_fault <> None)
        h.Container.hl_sections
    with
    | Some { Container.sec_fault = Some f; _ } -> Some f
    | _ -> h.Container.hl_footer
  in
  let validate_report w =
    match W.validate w with
    | [] ->
      print_endline "structure: ok";
      true
    | errs ->
      Printf.printf "structure: %d violation(s)\n" (List.length errs);
      List.iter (fun e -> Printf.printf "  %s\n" e) errs;
      false
  in
  let action obs file salvage injects gc =
    with_obs obs @@ fun () ->
    (* Sweep for staging files a crashed atomic save left behind. They
       never affect the container's health (loads ignore them), so they
       are reported — and with --gc removed — without touching the exit
       code. *)
    (match Store.orphan_temps file with
     | [] -> ()
     | orphans ->
       Printf.printf "orphaned save temps (%d):\n" (List.length orphans);
       List.iter (fun p -> Printf.printf "  %s\n" p) orphans;
       if gc then begin
         ignore (Store.remove_orphans file);
         Printf.printf "removed %d orphaned temp file(s)\n"
           (List.length orphans)
       end
       else print_endline "(re-run with --gc to remove them)");
    let faults =
      List.map
        (fun s ->
          match Faultsim.of_spec s with
          | Ok f -> Ok f
          | Error m -> Error m)
        injects
    in
    match
      List.find_map (function Error m -> Some m | Ok _ -> None) faults
    with
    | Some m -> `Error (true, "--inject " ^ m)
    | None -> (
      let faults = List.filter_map Result.to_option faults in
      match
        let ic = open_in_bin file in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error m -> `Error (false, m)
      | data -> (
        let data = List.fold_left (fun d f -> Faultsim.apply f d) data faults in
        List.iter
          (fun f -> Printf.printf "injected: %s\n" (Faultsim.describe f))
          faults;
        match Container.examine data with
        | Error fault -> corrupt_exit file fault
        | Ok health -> (
          health_table file health;
          match first_fault health with
          | None -> (
            (* checksums pass; decode strictly and validate structure *)
            match Container.decode data with
            | Error fault -> corrupt_exit file fault
            | Ok (w, _) ->
              if w.W.damage <> [] then
                Printf.printf "note: sections %s were salvaged away by an \
                               earlier load and are absent\n"
                  (String.concat ", "
                     (List.map (Printf.sprintf "'%s'") w.W.damage));
              if validate_report w then begin
                Printf.printf "%s: clean\n" file;
                `Ok ()
              end
              else exit 3)
          | Some fault ->
            if salvage then begin
              match Container.decode ~salvage:true data with
              | Error f -> corrupt_exit file f
              | Ok (w, _) ->
                (match w.W.damage with
                 | [] -> print_endline "salvage: nothing lost"
                 | damage ->
                   Printf.printf
                     "salvage: lost %s; all other sections recovered\n"
                     (String.concat ", "
                        (List.map (Printf.sprintf "'%s'") damage)));
                ignore (validate_report w);
                corrupt_exit file fault
            end
            else corrupt_exit file fault)))
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check a WET container: per-section checksums, footer, and \
          structural invariants (plus a sweep for orphaned save temps; \
          see --gc). Exits 3 on any damage.")
    Term.(
      ret (const action $ obs_term $ file_arg $ salvage_arg $ inject_arg
           $ gc_arg))

(* ---------------- bench-check ---------------- *)

(* The CI regression gate: diff a BENCH_PR*.json produced by
   `bench/main.exe observatory` against a committed baseline. Exit 3 on
   regression, mirroring fsck's "the input is bad" convention; a file
   that does not load or a scale that differs is a usage error (2). *)

let bench_check_cmd =
  let current_arg =
    let doc = "The freshly produced bench observatory file." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CURRENT" ~doc)
  in
  let against_arg =
    let doc = "Baseline bench file to compare against." in
    Arg.(
      required & opt (some file) None & info [ "against" ] ~docv:"FILE" ~doc)
  in
  let action current against =
    let ( let* ) = Result.bind in
    match
      let* cur = Bench_obs.load current in
      let* prev = Bench_obs.load against in
      Bench_obs.check ~prev ~cur
    with
    | Error m -> `Error (false, m)
    | Ok [] ->
      Printf.printf "bench-check: no overlapping workloads between %s and %s\n"
        current against;
      `Ok ()
    | Ok verdicts ->
      let rows =
        List.map
          (fun (v : Bench_obs.verdict) ->
            [
              v.Bench_obs.v_workload;
              v.Bench_obs.v_metric;
              Printf.sprintf "%.4g" v.Bench_obs.v_prev;
              Printf.sprintf "%.4g" v.Bench_obs.v_cur;
              Printf.sprintf "%+.1f%%" (100. *. v.Bench_obs.v_worse_frac);
              (if v.Bench_obs.v_regressed then "REGRESSED" else "ok");
            ])
          verdicts
      in
      Table.print
        ~title:
          (Printf.sprintf "bench-check: %s vs baseline %s (%.0f%% allowed)."
             current against (100. *. Bench_obs.threshold))
        ~align:Table.[ Left; Left; Right; Right; Right; Left ]
        ~header:
          [ "Workload"; "Metric"; "Baseline"; "Current"; "Worse by"; "Status" ]
        rows;
      let bad = List.filter (fun v -> v.Bench_obs.v_regressed) verdicts in
      if bad = [] then begin
        Printf.printf "bench-check: ok (%d comparisons)\n"
          (List.length verdicts);
        `Ok ()
      end
      else begin
        Printf.printf "bench-check: %d regression(s) of %d comparisons\n"
          (List.length bad) (List.length verdicts);
        exit 3
      end
  in
  Cmd.v
    (Cmd.info "bench-check"
       ~doc:
         "Compare a bench observatory file (BENCH_PR*.json) against a \
          baseline of the same scales and fail (exit 3) when any column \
          is more than 2% worse.")
    Term.(ret (const action $ current_arg $ against_arg))

(* ---------------- obs (offline report / diff) ---------------- *)

(* Readers for the wet-obs exports: a metrics JSONL dump ([--metrics-out])
   and a Chrome trace file ([--trace-out]). Both formats carry a
   "schema":"wet-obs/2" version since PR 6; v1 files (no schema field)
   are still read, with a note. *)

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let jstr k j =
  match Insight_json.member k j with
  | Some v -> Option.value (Insight_json.to_str v) ~default:""
  | None -> ""

let jint k j =
  match Insight_json.member k j with
  | Some v -> Option.value (Insight_json.to_int v) ~default:0
  | None -> 0

let jnum k j =
  match Insight_json.member k j with
  | Some v -> Option.value (Insight_json.to_num v) ~default:0.
  | None -> 0.

let note_schema path = function
  | Some s when s = Wet_obs.Export.schema -> ()
  | Some s ->
    Printf.printf "note: %s carries schema %s (this build writes %s)\n" path
      s Wet_obs.Export.schema
  | None ->
    Printf.printf "note: %s has no schema field (wet-obs/1, pre-versioning)\n"
      path

(* "Hottest" sorts by event volume: counter/gauge value, histogram
   observation count. *)
let print_hottest path instruments top =
  let volume = Obs_read.volume in
  let insts =
    List.sort
      (fun (a_n, a) (b_n, b) -> compare (volume b, a_n) (volume a, b_n))
      instruments
  in
  let rows =
    List.filteri (fun i _ -> i < top) insts
    |> List.map (fun (name, r) ->
         let v =
           match r with
           | Wet_obs.Metrics.Histogram h ->
             Printf.sprintf "%d obs, sum %d" h.Wet_obs.Metrics.h_count
               h.Wet_obs.Metrics.h_sum
           | _ -> string_of_int (volume r)
         in
         [ name; Obs_read.kind r; v ])
  in
  Table.print
    ~title:
      (Printf.sprintf "Hottest instruments (%s, %d of %d)." path
         (List.length rows)
         (List.length instruments))
    ~align:Table.[ Left; Left; Right ]
    ~header:[ "Instrument"; "Kind"; "Value" ]
    rows

(* The trace's complete events ([ph = "X"]) sorted by start time, with
   the recorded span-stack depth as indentation, read as the phase
   tree. GC deltas ride along as span attributes. *)
let print_span_tree path =
  match Insight_json.parse (read_whole_file path) with
  | Error m -> Error (Printf.sprintf "%s: %s" path m)
  | Ok j ->
    (match Insight_json.member "schema" j with
     | Some s -> note_schema path (Insight_json.to_str s)
     | None -> note_schema path None);
    let events =
      match Insight_json.member "traceEvents" j with
      | Some a -> Option.value (Insight_json.to_list a) ~default:[]
      | None -> []
    in
    let spans =
      List.filter_map
        (fun e ->
          if jstr "ph" e <> "X" then None
          else
            let args =
              Option.value (Insight_json.member "args" e) ~default:Insight_json.Null
            in
            Some
              ( jnum "ts" e,
                jnum "dur" e,
                jint "depth" args,
                jstr "name" e,
                jnum "alloc_minor_words" args,
                jnum "alloc_major_words" args,
                Insight_json.member "raised" args <> None ))
        events
      |> List.sort compare
    in
    let rows =
      List.map
        (fun (_, dur, depth, name, minor, major, raised) ->
          [
            String.make (2 * depth) ' ' ^ name
            ^ (if raised then " [raised]" else "");
            Printf.sprintf "%.2f" (dur /. 1e3);
            Printf.sprintf "%.2f" (minor /. 1e6);
            Printf.sprintf "%.2f" (major /. 1e6);
          ])
        spans
    in
    if rows = [] then Printf.printf "%s: no spans recorded\n" path
    else
      Table.print
        ~title:(Printf.sprintf "Phase spans (%s)." path)
        ~align:Table.[ Left; Right; Right; Right ]
        ~header:[ "Span"; "ms"; "minor Mw"; "major Mw" ]
        rows;
    Ok ()

let obs_top_arg =
  let doc = "Show the N hottest / most-changed instruments." in
  Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc)

let obs_report_cmd =
  let metrics_arg =
    let doc = "A metrics JSONL export written by --metrics-out." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"METRICS" ~doc)
  in
  let trace_arg =
    let doc =
      "Also render the per-phase span tree (with GC deltas) from this \
       Chrome trace file written by --trace-out."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let action metrics trace top =
    match Obs_read.load metrics with
    | Error m -> `Error (false, m)
    | Ok (schema, instruments) ->
      note_schema metrics schema;
      (match trace with
       | None -> ()
       | Some t -> (
         match print_span_tree t with
         | Ok () -> ()
         | Error m ->
           Printf.printf "note: cannot read trace: %s\n" m));
      print_hottest metrics instruments top;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Pretty-print an end-of-run observability report from a metrics \
          export (and optionally a trace export): per-phase span tree \
          with GC deltas and the hottest instruments.")
    Term.(ret (const action $ metrics_arg $ trace_arg $ obs_top_arg))

let obs_diff_cmd =
  let a_arg =
    let doc = "Baseline metrics JSONL export (run A)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc)
  in
  let b_arg =
    let doc = "Comparison metrics JSONL export (run B)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc)
  in
  let action a b top =
    match (Obs_read.load a, Obs_read.load b) with
    | Error m, _ | _, Error m -> `Error (false, m)
    | Ok (schema_a, fa), Ok (schema_b, fb) ->
      note_schema a schema_a;
      note_schema b schema_b;
      let d = Obs_diff.diff fa fb in
      let only_in tag = function
        | [] -> ()
        | names ->
          Printf.printf "only in %s: %s\n" tag (String.concat ", " names)
      in
      (* Zero overlap is its own verdict: the exports describe disjoint
         instrument sets (different pipelines, different schema eras), so
         "nothing changed" would be actively misleading. Still exit 0 —
         an empty comparison is an answer, not an error. *)
      if d.Obs_diff.d_overlap = 0 then
        Printf.printf
          "obs diff: %s and %s share no instrument — nothing to compare\n" a b
      else if d.Obs_diff.d_changed = [] then
        Printf.printf
          "obs diff: no instrument changed between %s and %s (%d compared)\n"
          a b d.Obs_diff.d_overlap
      else begin
        let rows =
          List.filteri (fun i _ -> i < top) d.Obs_diff.d_changed
          |> List.map (fun (r : Obs_diff.row) ->
               [
                 r.Obs_diff.d_name;
                 r.Obs_diff.d_kind;
                 string_of_int r.Obs_diff.d_a;
                 string_of_int r.Obs_diff.d_b;
                 Printf.sprintf "%+.1f%%" (100. *. r.Obs_diff.d_rel);
               ])
        in
        Table.print
          ~title:
            (Printf.sprintf "obs diff: %s vs %s (%d of %d changed)." a b
               (List.length rows)
               (List.length d.Obs_diff.d_changed))
          ~align:Table.[ Left; Left; Right; Right; Right ]
          ~header:[ "Instrument"; "Kind"; "A"; "B"; "Delta" ]
          rows
      end;
      only_in a d.Obs_diff.d_only_a;
      only_in b d.Obs_diff.d_only_b;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Diff two metrics JSONL exports (A/B runs): per-instrument \
          deltas sorted by relative change. Accepts v1 exports (no \
          schema field) with a note.")
    Term.(ret (const action $ a_arg $ b_arg $ obs_top_arg))

let obs_cmd =
  Cmd.group
    (Cmd.info "obs"
       ~doc:
         "Inspect observability exports: end-of-run reports and A/B \
          diffs of metrics dumps.")
    [ obs_report_cmd; obs_diff_cmd ]

(* ---------------- qlog (structured query log) ---------------- *)

let qlog_files_pos p =
  let doc =
    "wet-qlog/1 JSONL files written by --qlog-out or the serve daemon; \
     pass several to merge them, and $(b,-) reads from stdin."
  in
  Arg.(non_empty & pos_right (p - 1) string [] & info [] ~docv:"QLOG" ~doc)

(* Rotated daemon access logs arrive as many files (or a pipe); merge
   them into one entry list so report/top aggregate across the set. *)
let qlog_load_stdin () =
  let rec go n acc =
    match In_channel.input_line stdin with
    | None -> Ok (List.rev acc)
    | Some l when String.trim l = "" -> go (n + 1) acc
    | Some l ->
      (match Qlog.parse_line l with
       | Ok e -> go (n + 1) (e :: acc)
       | Error m -> Error (Printf.sprintf "stdin:%d: %s" n m))
  in
  go 1 []

let qlog_load_many files =
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | f :: rest ->
      (match if f = "-" then qlog_load_stdin () else Qlog.load f with
       | Error m -> Error m
       | Ok es -> go (es :: acc) rest)
  in
  go [] files

let qlog_source_label = function
  | [ f ] -> (if f = "-" then "stdin" else f)
  | files -> Printf.sprintf "%d files" (List.length files)

let qlog_report_cmd =
  let top_arg =
    let doc = "Show the N hottest shapes." in
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc)
  in
  let action files top =
    let label = qlog_source_label files in
    match qlog_load_many files with
    | Error m -> `Error (false, m)
    | Ok [] ->
      Printf.printf "%s: empty query log\n" label;
      `Ok ()
    | Ok entries ->
      let sums = Qlog.summarize entries in
      let wall_total =
        List.fold_left
          (fun acc (s : Qlog.shape_summary) -> acc + s.Qlog.s_wall_total_ns)
          0 sums
      in
      let rows =
        List.filteri (fun i _ -> i < top) sums
        |> List.map (fun (s : Qlog.shape_summary) ->
             let c = s.Qlog.s_cost in
             [
               s.Qlog.s_shape;
               string_of_int s.Qlog.s_count;
               string_of_int s.Qlog.s_errors;
               Printf.sprintf "%.2f" (ns_ms s.Qlog.s_wall_total_ns);
               Printf.sprintf "%.1f%%"
                 (if wall_total = 0 then 0.
                  else
                    100.
                    *. float_of_int s.Qlog.s_wall_total_ns
                    /. float_of_int wall_total);
               Printf.sprintf "%.3f" (s.Qlog.s_wall_p50_ns /. 1e6);
               Printf.sprintf "%.3f" (s.Qlog.s_wall_p95_ns /. 1e6);
               string_of_int (Qprof.decode_steps c);
               string_of_int c.Qprof.c_bits;
               string_of_int c.Qprof.c_switches;
             ])
      in
      Table.print
        ~title:
          (Printf.sprintf "Hottest query shapes (%s: %d queries, %d shapes)."
             label (List.length entries) (List.length sums))
        ~align:
          Table.[
            Left; Right; Right; Right; Right; Right; Right; Right; Right;
            Right;
          ]
        ~header:
          [
            "Shape"; "Queries"; "Err"; "Wall ms"; "Share"; "p50 ms";
            "p95 ms"; "Decode"; "Bits"; "Switches";
          ]
        rows;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate a query log: hottest shapes first with query counts, \
          p50/p95 latency and summed cost attribution (decode steps, \
          stored bits, direction switches).")
    Term.(ret (const action $ qlog_files_pos 0 $ top_arg))

let qlog_top_cmd =
  let n_arg =
    let doc = "How many queries to show." in
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc)
  in
  let action n files =
    let label = qlog_source_label files in
    match qlog_load_many files with
    | Error m -> `Error (false, m)
    | Ok entries ->
      let slowest =
        List.sort
          (fun (a : Qlog.entry) (b : Qlog.entry) ->
            compare b.Qlog.e_cost.Qprof.c_wall_ns a.Qlog.e_cost.Qprof.c_wall_ns)
          entries
      in
      let rows =
        List.filteri (fun i _ -> i < n) slowest
        |> List.map (fun (e : Qlog.entry) ->
             [
               e.Qlog.e_shape;
               String.concat " "
                 (List.map (fun (k, v) -> k ^ "=" ^ v) e.Qlog.e_params);
               Printf.sprintf "%.3f" (ns_ms e.Qlog.e_cost.Qprof.c_wall_ns);
               string_of_int (Qprof.decode_steps e.Qlog.e_cost);
               string_of_int e.Qlog.e_cost.Qprof.c_bits;
               e.Qlog.e_outcome;
             ])
      in
      if rows = [] then Printf.printf "%s: empty query log\n" label
      else
        Table.print
          ~title:
            (Printf.sprintf "Slowest queries (%s, %d of %d)." label
               (List.length rows) (List.length entries))
          ~align:Table.[ Left; Left; Right; Right; Right; Left ]
          ~header:[ "Shape"; "Params"; "Wall ms"; "Decode"; "Bits"; "Outcome" ]
          rows;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Show the N slowest individual queries in a query log.")
    Term.(ret (const action $ n_arg $ qlog_files_pos 1))

let qlog_cmd =
  Cmd.group
    (Cmd.info "qlog"
       ~doc:
         "Inspect structured query logs (wet-qlog/1 JSONL written by \
          --qlog-out): per-shape latency/cost reports and slowest-query \
          listings.")
    [ qlog_report_cmd; qlog_top_cmd ]

(* ---------------- benchmarks ---------------- *)

let benchmarks_cmd =
  let action obs =
    with_obs obs @@ fun () ->
    Table.print ~title:"Bundled benchmarks."
      ~align:Table.[ Left; Right; Right; Left ]
      ~header:[ "Name"; "Default scale"; "Timing scale"; "Description" ]
      (List.map
         (fun w ->
           [
             w.Spec.name;
             string_of_int w.Spec.default_scale;
             string_of_int w.Spec.timing_scale;
             w.Spec.description;
           ])
         Spec.all);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "benchmarks" ~doc:"List the bundled benchmark programs.")
    Term.(ret (const action $ obs_term))

(* ---------------- serve (query daemon) ---------------- *)

let socket_pos =
  let doc = "Unix-domain socket path." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET" ~doc)

let serve_cmd =
  let cache_arg =
    let doc = "Keep at most $(docv) WET containers resident (LRU)." in
    Arg.(value & opt int 4 & info [ "cache" ] ~docv:"N" ~doc)
  in
  let qlog_arg =
    let doc =
      "Append every request's profile to $(docv) as wet-qlog/1 JSONL (the \
       daemon's access log; aggregate with `wet qlog report`)."
    in
    Arg.(value & opt (some string) None & info [ "qlog" ] ~docv:"FILE" ~doc)
  in
  let ring_arg =
    let doc = "Flight-recorder ring capacity (entries)." in
    Arg.(value & opt int 4096 & info [ "ring" ] ~docv:"N" ~doc)
  in
  let domains_arg =
    let doc =
      "Dispatch up to $(docv) connections on their own domains \
       (parallel reads over shared containers); later connections \
       share the accept domain's sys-threads. Defaults to the \
       machine's recommended domain count minus two."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let action obs socket cache qlog ring domains =
    (* The daemon's spans live in its ring, so a trace export would be
       empty; refuse it before anything runs or is written. *)
    if obs.o_trace <> None then
      `Error
        ( true,
          "--trace-out would write no spans: the daemon keeps its request \
           spans in its ring; read them with the `watch` verb" )
    else
    with_obs obs @@ fun () ->
    let dft = Serve_server.default_config ~socket in
    match
      Serve_server.run
        {
          Serve_server.socket;
          cache_capacity = cache;
          qlog;
          ring_capacity = ring;
          domains =
            (match domains with
             | Some d -> max 0 d
             | None -> dft.Serve_server.domains);
        }
    with
    | () -> `Ok ()
    | exception Wet_error.Error e -> `Error (false, Wet_error.message e)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve WET queries over a Unix socket: a long-lived daemon with \
          an LRU container cache, per-request qprof attribution, a \
          wet-qlog/1 access log and live serve.* metrics (watch with \
          `wet top`).")
    Term.(
      ret (const action $ obs_term $ socket_pos $ cache_arg $ qlog_arg
           $ ring_arg $ domains_arg))

let top_cmd =
  let json_arg =
    let doc = "Emit one JSONL snapshot object per tick instead of \
               repainting the terminal." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let interval_arg =
    let doc = "Milliseconds between polls (at least 100)." in
    Arg.(value & opt int 1000 & info [ "interval-ms" ] ~docv:"MS" ~doc)
  in
  let count_arg =
    let doc = "Stop after $(docv) snapshots (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N" ~doc)
  in
  let instruments_arg =
    let doc = "Hottest-instrument rows on the terminal screen." in
    Arg.(value & opt int 12 & info [ "instruments" ] ~docv:"N" ~doc)
  in
  let action socket json interval count instruments =
    match
      Serve_top.run
        {
          Serve_top.socket;
          mode = (if json then Serve_top.Jsonl else Serve_top.Tty);
          interval_ms = interval;
          count;
          instruments;
        }
    with
    | Ok () -> `Ok ()
    | Error m -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard for a `wet serve` daemon: request rates, latency \
          p50/p95 from histogram buckets, cache and ring state, hottest \
          instruments.")
    Term.(
      ret (const action $ socket_pos $ json_arg $ interval_arg $ count_arg
           $ instruments_arg))

let () =
  let doc = "whole execution traces: build, compress and query WETs" in
  let info = Cmd.info "wet" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval ~term_err:2
      (Cmd.group info
         [
           run_cmd; stats_cmd; trace_cmd; slice_cmd; paths_cmd; at_cmd;
           watch_cmd; build_cmd; verify_cmd; fsck_cmd; dot_cmd; profile_cmd;
           obs_cmd; qlog_cmd; bench_check_cmd; benchmarks_cmd; serve_cmd;
           top_cmd;
         ])
  in
  (* usage errors — unknown flags, missing arguments, bad --inject specs —
     uniformly exit 2; 3 is reserved for corrupt input *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
