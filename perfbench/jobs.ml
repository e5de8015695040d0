(* The build workloads: source text to a saved tier-2 container, one job
   at a time. [build] runs each job exactly as [wet build --tier2] does;
   [build_durable] runs it with a checkpoint journal, then kills it once
   at a seeded shard and resumes it. *)

open Common
module Spec = Wet_workloads.Spec
module B = Wet_core.Builder
module CK = Wet_core.Builder.Checkpoint
module J = Wet_journal.Journal
module W = Wet_core.Wet
module Store = Wet_core.Store
module Sizes = Wet_core.Sizes
module Interp = Wet_interp.Interp
module PA = Wet_cfg.Program_analysis
module Span = Wet_obs.Span

type job = { spec : Spec.t; input : int array }

let name j = j.spec.Spec.name

(* The self-test's subset: the programs whose inputs shrink to a few
   thousand statements at a 64th of their timing scale. *)
let tiny_names = [ "099.go"; "126.gcc"; "130.li"; "197.parser" ]

let noop_sink =
  {
    Interp.es_block = ignore;
    es_dep = ignore;
    es_stmt = ignore;
    es_path = ignore;
    es_call = ignore;
    es_ret = (fun _ _ -> ());
    es_live = ignore;
  }

(* A program's input [scale; seed'], seed' drawn from the run seed. How
   much some programs execute depends on seed' (over ten draws 126.gcc's
   statement count spans 1.75x, 130.li's and 197.parser's 1.4x), so
   nine seeds' are drawn and the one whose run executes the median
   number of statements is kept: the seed changes the data, and hardly
   the amount of work. The draws run in a child process, so that this
   one stays small. *)
let input cfg (s : Spec.t) ~scale =
  let st = rng cfg.seed ("input", s.Spec.name) in
  let program = Spec.compile s in
  let analysis = PA.of_program program in
  let stmts seed' =
    let n = ref 0 in
    ignore
      (Interp.run_with_sink ~analysis
         ~sink:{ noop_sink with Interp.es_stmt = (fun _ -> incr n) }
         program ~input:[| scale; seed' |]);
    !n
  in
  let draws = List.init 9 (fun _ -> 1 + Random.State.int st 0x3FFFFFFE) in
  isolated (fun () -> List.map (fun seed' -> (stmts seed', seed')) draws)
  |> List.sort compare
  |> fun ranked -> [| scale; snd (List.nth ranked 4) |]

(* The bundled programs (all nine, or the tiny subset), each with its
   seeded input. The scale is the program's timing scale divided by
   [div], or by [tiny_div] in the self-test. *)
let jobs ?only ?(tiny_div = 64) cfg ~div =
  let keep (s : Spec.t) =
    match (cfg.tiny, only) with
    | true, _ -> List.mem s.Spec.name tiny_names
    | false, Some names -> List.mem s.Spec.name names
    | false, None -> true
  in
  List.filter keep Spec.all
  |> List.map (fun (s : Spec.t) ->
         let div = if cfg.tiny then tiny_div else div in
         { spec = s; input = input cfg s ~scale:(max 1 (s.Spec.timing_scale / div)) })

(* ---------------- the steps of a job ---------------- *)

(* Each step runs inside a span: the library's own where it has one
   ("build.stream" around the fused interp+sink build, "build.tier2"
   around [pack], "store.save" around [Store.save]), and the
   benchmark's where it has none. Spans record only in a traced run. *)

let frontend j =
  Span.with_ "frontend" (fun () ->
      let program = Spec.compile j.spec in
      (program, PA.of_program program))

let pack_and_save wet ~out =
  let packed = B.pack wet in
  Store.save packed out;
  packed

(* [wet build --tier2 PROGRAM -o OUT]: interpret straight into the
   streaming sink, pack, save. *)
let plain j ~out =
  let program, analysis = frontend j in
  pack_and_save (B.run_streaming ~analysis ~program ~input:j.input ()) ~out

let checkpoint_build ?on_header_written ~program ~analysis j ~journal =
  CK.build ~checkpoint_every:1 ~tier2:true ~label:(name j) ?on_header_written
    ~analysis ~journal ~program ~input:j.input ()

(* [wet build --tier2 --checkpoint JOURNAL PROGRAM -o OUT]. *)
let journaled j ~journal ~out =
  let program, analysis = frontend j in
  let wet =
    Span.with_ "checkpoint.build" (fun () ->
        checkpoint_build ~program ~analysis j ~journal)
  in
  (program, analysis, pack_and_save wet ~out)

(* [--kill kill:shard:K]: the build dies once K checkpoints after the
   header are durable. [false] when it finished first. *)
let crash ~program ~analysis j ~journal ~k =
  Fun.protect
    ~finally:(fun () -> J.kill_after_records := None)
    (fun () ->
      match
        checkpoint_build ~program ~analysis j ~journal
          ~on_header_written:(fun () -> J.kill_after_records := Some k)
      with
      | _ -> false
      | exception J.Kill_injected -> true)

(* [wet build --resume JOURNAL -o OUT]. *)
let recover ~journal ~out =
  let r = Span.with_ "checkpoint.resume" (fun () -> CK.resume ~journal ()) in
  ignore (pack_and_save r.CK.r_wet ~out);
  r

(* A seeded shard near the middle of the build (within an eighth of it
   either way), so the share of the build that is resumed, and the
   journal read back, stay comparable from seed to seed. *)
let kill_shard st shards =
  let jitter = shards / 8 in
  max 0 (min (shards - 1) ((shards / 2) - jitter + Random.State.int st ((2 * jitter) + 1)))

(* ---------------- output checks ---------------- *)

(* The container loads strictly and validates clean; any exception
   counts as a failed output. *)
let sound path =
  match W.validate (Store.load path) with
  | [] -> true
  | _ :: _ -> false
  | exception _ -> false

(* The plain build of a job, with the shard count its sink flushed: the
   byte-identity reference and the range of the seeded kill. *)
let reference j ~out =
  let program, analysis = frontend j in
  let sink = B.Sink.create analysis in
  ignore
    (Interp.run_with_sink ~analysis ~sink:(B.Sink.events sink) program
       ~input:j.input);
  let shards = B.Sink.shard_count sink in
  Store.save (B.pack (B.Sink.finish sink)) out;
  (Digest.file out, shards)

(* ---------------- layer probes (traced runs only) ---------------- *)

(* The interpreter alone, delivering to a sink that does nothing. *)
let probe_interp ~program ~analysis j =
  ignore (Interp.run_with_sink ~analysis ~sink:noop_sink program ~input:j.input)

(* The fused build once more with peak tracking, for the sink's counts. *)
let probe_sink ~program ~analysis j =
  let sink = B.Sink.create ~track_peak:true analysis in
  ignore
    (Interp.run_with_sink ~analysis ~sink:(B.Sink.events sink) program
       ~input:j.input);
  let counts = (B.Sink.shard_count sink, B.Sink.peak_live_words sink) in
  ignore (B.Sink.finish sink);
  counts

(* ---------------- the workload ---------------- *)

type sample = {
  stmts : int;
  bytes : int;
  busy : int;  (** ns of CPU, source text to saved container *)
  wall : int;  (** ns *)
  peak_mb : float;  (** the process's VmHWM during the job *)
  ok : bool;
}

(* Per-job layer facts gathered outside the timed regions. *)
type facts = {
  f_stmts : int;
  f_bytes : int;
  f_bits : float;  (** analytic tier-2 bits, [Sizes.current] *)
  f_shards : int;
  f_peak : int;
  f_journal_bytes : int;
  f_records : int;
  f_ff_ms : float;
  f_replayed : int;
}

(* The set-up, compiling and analysing every input, takes about a
   millisecond of CPU. It is repeated this many times before every job,
   so that its median comes from set-ups spread over the whole run, as
   the jobs are, not from one moment of the host's speed. *)
let setup_reps_per_job = 16

let run cfg ~durable =
  (* A journaled build is killed at a checkpoint, and at a 64th of
     their scale the tiny programs flush none; at a 4th each flushes two
     to four shards. *)
  let jobs = jobs cfg ~div:4 ~tiny_div:(if durable then 4 else 64) in
  let file j ext = Filename.concat cfg.dir (name j ^ ext) in
  (* set-up: compile and analyse every input *)
  let setups = ref [] in
  let set_up () =
    Spans.with_sink false (fun () ->
        let compile_all () = List.iter (fun j -> ignore (frontend j)) jobs in
        for _ = 1 to setup_reps_per_job do
          setups := secs (snd (busy compile_all)) :: !setups
        done)
  in
  (* byte-identity references, built before anything is timed *)
  let refs =
    Spans.with_sink false (fun () ->
        List.mapi
          (fun i j ->
            let digest, shards =
              isolated (fun () -> reference j ~out:(file j ".ref.wet"))
            in
            let digest =
              if cfg.wrong_reference && i = 0 then Digest.string "wrong" else digest
            in
            (name j, (digest, shards)))
          (if durable then jobs else []))
  in
  let check j path =
    sound path
    && ((not durable) || Digest.equal (Digest.file path) (fst (List.assoc (name j) refs)))
  in
  let order_st = rng cfg.seed "job-order" and kill_st = rng cfg.seed "kill" in
  let samples = ref [] and twins = ref [] and recoveries = ref [] and facts = ref [] in
  let next_job = ref 0 in
  (* Untraced, each job, kill and recovery runs in a process of its own,
     forked from this one, as a fresh [wet build] process would run it:
     it pays for none of its predecessors' garbage, and its peak memory
     is its own. A traced run keeps them in this process, where its
     spans are recorded. *)
  let fresh ~traced f = if traced then f () else isolated f in
  (* One build of [j] from source text to saved container, measured in
     busy time and wall, and traced when [traced]. *)
  let build j ~id ~traced =
    Gc.full_major ();
    reset_peak_rss ();
    let out = file j ".wet" and journal = file j ".jrnl" in
    let attrs = [ ("job", Span.Int id); ("program", Span.Str (name j)) ] in
    let (packed, wall), busy =
      Spans.with_sink traced (fun () ->
          busy (fun () ->
              timed (fun () ->
                  Span.with_ ~attrs "job" (fun () ->
                      if durable then
                        let _, _, packed = journaled j ~journal ~out in
                        packed
                      else plain j ~out))))
    in
    let peak_mb = peak_rss_mb () in
    ( packed,
      {
        stmts = packed.W.stats.W.stmts_executed;
        bytes = file_size out;
        busy;
        wall;
        peak_mb;
        ok = check j out;
      } )
  in
  (* The journaled build of [j] once more, killed at a seeded shard,
     then resumed and timed. A kill that never fires fails the job.
     Returns the resume's fast-forward ms and replayed shards. *)
  let crash_and_recover j (s : sample) ~id ~traced =
    let journal = file j ".jrnl" and resumed = file j ".resumed.wet" in
    let k = kill_shard kill_st (snd (List.assoc (name j) refs)) in
    let killed =
      fresh ~traced (fun () ->
          let program, analysis = Spans.with_sink false (fun () -> frontend j) in
          Spans.with_sink traced (fun () ->
              Span.with_ "crash" (fun () -> crash ~program ~analysis j ~journal ~k)))
    in
    let recovery, ff_ms, replayed =
      fresh ~traced (fun () ->
          Gc.full_major ();
          reset_peak_rss ();
          let (r, wall), busy =
            Spans.with_sink traced (fun () ->
                busy (fun () ->
                    timed (fun () ->
                        Span.with_
                          ~attrs:[ ("job", Span.Int id) ]
                          "recover"
                          (fun () -> recover ~journal ~out:resumed))))
          in
          let peak_mb = peak_rss_mb () in
          ( { s with busy; wall; peak_mb; ok = check j resumed },
            r.CK.r_resume_ms,
            r.CK.r_replayed_shards ))
    in
    Sys.remove journal;
    recoveries := { recovery with ok = killed && recovery.ok } :: !recoveries;
    (ff_ms, replayed)
  in
  (* Layer facts and probes of a traced job, after its timed build. *)
  let probe j (packed : W.t) (s : sample) resumed ~journal_bytes ~records =
    let program, analysis = Spans.with_sink false (fun () -> frontend j) in
    Span.with_ "probe.interp" (fun () -> probe_interp ~program ~analysis j);
    if durable then
      Span.with_ "probe.fused" (fun () ->
          ignore (B.run_streaming ~analysis ~program ~input:j.input ()));
    let shards, peak = Spans.with_sink false (fun () -> probe_sink ~program ~analysis j) in
    facts :=
      {
        f_stmts = s.stmts;
        f_bytes = s.bytes;
        f_bits = 8. *. (Sizes.current packed).Sizes.total_bytes;
        f_shards = shards;
        f_peak = peak;
        f_journal_bytes = journal_bytes;
        f_records = records;
        f_ff_ms = (match resumed with Some (ff_ms, _) -> ff_ms | None -> 0.);
        f_replayed = (match resumed with Some (_, n) -> n | None -> 0);
      }
      :: !facts
  in
  (* An untraced run's speed probe runs here, between jobs, where no job
     runs beside it: eight loops before every job. *)
  let speed = ref [] in
  (* Untraced, each job is built (and, when durable, killed and
     resumed). Traced, each job is also built untraced, the twin whose
     busy time the traced build is compared with for the tracing
     overhead; which of the two goes first alternates from job to job,
     so neither gains from going second. *)
  let run_job j =
    if not cfg.traced then speed := List.init 8 (fun _ -> speed_sample ()) @ !speed;
    set_up ();
    incr next_job;
    let id = !next_job in
    if not cfg.traced then begin
      let s = isolated (fun () -> snd (build j ~id ~traced:false)) in
      samples := s :: !samples;
      if durable then ignore (crash_and_recover j s ~id ~traced:false)
    end
    else begin
      let twin_first = List.length !twins mod 2 = 0 in
      let twin () = twins := snd (build j ~id ~traced:false) :: !twins in
      if twin_first then twin ();
      let packed, s = build j ~id ~traced:true in
      samples := s :: !samples;
      let journal = file j ".jrnl" in
      let journal_bytes, records =
        if not durable then (0, 0)
        else
          ( file_size journal,
            match J.read journal with Ok scan -> List.length scan.J.records | Error _ -> 0 )
      in
      if not twin_first then twin ();
      let r = if durable then Some (crash_and_recover j s ~id ~traced:true) else None in
      Spans.with_sink true (fun () -> probe j packed s r ~journal_bytes ~records)
    end
  in
  (* whole rounds keep every run's job mix identical *)
  let round () = List.iter run_job (shuffle order_st jobs) in
  let t_start = now_ns () in
  let rounds = ref 0 in
  while !rounds = 0 || secs (now_ns () - t_start) < cfg.seconds do
    round ();
    incr rounds
  done;
  let samples = List.rev !samples and recoveries = List.rev !recoveries in
  let all = samples @ !twins @ recoveries in
  let failed = List.length (List.filter (fun s -> not s.ok) all) in
  let checks =
    ( (if durable then
         "containers load strictly, validate clean and equal the plain build byte for byte"
       else "containers load strictly and validate clean"),
      List.for_all (fun s -> s.ok) (samples @ !twins) )
    ::
    (if durable then
       [ ("every seeded kill fired and the resumed build equals the plain one",
          List.for_all (fun s -> s.ok) recoveries) ]
     else [])
  in
  let fsum f l = sum (List.map (fun s -> float_of_int (f s)) l) in
  let lat l = List.map (fun s -> if s.ok then ms s.busy else infinity) l in
  let notes =
    [
      Printf.sprintf "%d rounds of %d jobs, scale = timing_scale/4" !rounds
        (List.length jobs);
      Printf.sprintf "jobs busy %.2f s in %.2f s of wall"
        (fsum (fun s -> s.busy) all /. 1e9)
        (fsum (fun s -> s.wall) all /. 1e9);
    ]
  in
  if not cfg.traced then begin
    (* set-ups and jobs alike are spread over the whole run *)
    let loop_ms = loop_ms !speed in
    let t = at_reference ~loop_ms in
    let busy_s = fsum (fun s -> s.busy) samples /. 1e9 in
    let measured =
      [
        ("setup_s", median !setups);
        ("build_stmts_per_s", fsum (fun s -> s.stmts) samples /. busy_s);
        ( "container_bytes_per_stmt",
          fsum (fun s -> s.bytes) samples /. fsum (fun s -> s.stmts) samples );
        ("peak_rss_mb", median (List.map (fun s -> s.peak_mb) all));
        (* without a journal, recovering a lost build is building again *)
        ( "recover_ms_p50",
          smooth_percentile 0.5 (lat (if durable then recoveries else samples)) );
        ("latency_p50_ms", smooth_percentile 0.5 (lat samples));
        ("latency_p99_ms", smooth_percentile 0.99 (lat samples));
        ("req_per_s", float_of_int (List.length samples) /. busy_s);
      ]
    in
    let values =
      List.map
        (fun (name, v) ->
          match name with
          | "setup_s" | "recover_ms_p50" | "latency_p50_ms" | "latency_p99_ms" ->
            (name, t v)
          | "build_stmts_per_s" | "req_per_s" -> (name, v /. t 1.)
          | _ -> (name, v))
        measured
    in
    let note = Catalogue.speed_note ~loop_ms ~scale:(t 1.) measured in
    {
      Catalogue.attempted = List.length all;
      failed;
      values;
      checks;
      layer_checks = [];
      notes = notes @ [ note ];
    }
  end
  else begin
    let t = Spans.of_events (Wet_obs.Sink.events ()) in
    let facts = !facts in
    let n = float_of_int (List.length facts) in
    let under name = Spans.total_ms t ~root:"job" name /. n
    and probed name = Spans.total_ms t name /. n in
    let ffsum f = sum (List.map f facts) in
    let isum f = ffsum (fun x -> float_of_int (f x)) in
    let interp = probed "probe.interp" in
    let fused = if durable then probed "probe.fused" else under "build.stream" in
    let checkpointed = under "checkpoint.build" in
    let roots = [ "job"; "recover" ] in
    let unexplained =
      100.
      *. ratio
           (sum (List.map (fun r -> Spans.self_ms t r) roots))
           (sum (List.map (fun r -> Spans.total_ms t r) roots))
    in
    let busies l = fsum (fun s -> s.busy) l in
    let values =
      [
        ("frontend.busy_ms", under "frontend");
        ("interp.busy_ms", interp);
        ("sink.busy_ms", fused -. interp);
        ("sink.shards", isum (fun f -> f.f_shards) /. n);
        ("sink.peak_words", isum (fun f -> f.f_peak) /. n);
        ("pack.busy_ms", under "build.tier2");
        ("pack.bits_per_stmt", ffsum (fun f -> f.f_bits) /. isum (fun f -> f.f_stmts));
        ("store.save.busy_ms", under "store.save");
        ( "store.overhead_ratio",
          8. *. isum (fun f -> f.f_bytes) /. ffsum (fun f -> f.f_bits) );
        ("journal.busy_ms", if durable then checkpointed -. fused else 0.);
        ("journal.records", isum (fun f -> f.f_records) /. n);
        ( "journal.bytes_per_stmt",
          isum (fun f -> f.f_journal_bytes) /. isum (fun f -> f.f_stmts) );
        ( "journal.container_ratio",
          isum (fun f -> f.f_journal_bytes) /. isum (fun f -> f.f_bytes) );
        ("resume.busy_ms", probed "checkpoint.resume");
        ("resume.fast_forward_ms", ffsum (fun f -> f.f_ff_ms) /. n);
        ("resume.replayed_shards", isum (fun f -> f.f_replayed) /. n);
        ("tracing.overhead_pct", 100. *. ((busies samples /. busies !twins) -. 1.));
        ("layers.unexplained_pct", unexplained);
      ]
    in
    let values =
      List.map
        (fun (m, _) -> (m, Option.value ~default:0. (List.assoc_opt m values)))
        Catalogue.per_layer
    in
    let tol = Catalogue.layer_tolerance_pct in
    let within part whole = part <= whole *. (1. +. (tol /. 100.)) in
    let layer_checks =
      [
        ( Printf.sprintf "layer self times add up to the job walls within %.0f%%" tol,
          unexplained <= tol );
        ( Printf.sprintf "interp alone is within %.0f%% of the fused interp+sink build" tol,
          within interp fused );
      ]
      @
      if durable then
        [
          ( Printf.sprintf "the fused build is within %.0f%% of Checkpoint.build" tol,
            within fused checkpointed );
        ]
      else []
    in
    {
      Catalogue.attempted = List.length all;
      failed;
      values;
      checks;
      layer_checks;
      notes;
    }
  end
