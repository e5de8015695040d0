(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (§5) on the nine synthetic workloads, plus
   ablations (bidirectional streams vs Sequitur, context sizes,
   optimisation levels), the persisted observatory that `wet
   bench-check` gates, and a streaming-memory smoke test.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe table1 fig8  -- a subset
     dune exec bench/main.exe -- --quick   -- quarter-scale sizes

   Absolute numbers differ from the paper (its substrate was Trimaran +
   SPEC on 2004 hardware); the shapes are the reproduction target. See
   EXPERIMENTS.md. *)

module Spec = Wet_workloads.Spec
module Interp = Wet_interp.Interp
module W = Wet_core.Wet
module Builder = Wet_core.Builder
module Query = Wet_core.Query
module Slice = Wet_core.Slice
module Sizes = Wet_core.Sizes
module AP = Wet_arch.Arch_profile
module Table = Wet_report.Table
module Chart = Wet_report.Chart
module Instr = Wet_ir.Instr

let quick = ref false

(* Timing and narration come from wet_obs, so the bench harness and the
   CLI report from the same clock and the same progress channel. With a
   sink enabled (e.g. under [wet_cli profile]) each [time] also leaves a
   span behind. *)
let time name f = Wet_obs.Span.timed name f

let progress fmt = Wet_obs.Log.info fmt

let scale_of w =
  let s = w.Spec.default_scale in
  if !quick then max 1 (s / 4) else s

let mb = Sizes.mb

let mw n = float_of_int n /. 1e6

(* ------------------------------------------------------------------ *)
(* Shared full-scale evaluation (Tables 1-4, Figure 8)                 *)
(* ------------------------------------------------------------------ *)

type size_row = {
  name : string;
  stmts : int;
  orig : Sizes.breakdown;
  tier1 : Sizes.breakdown;
  tier2 : Sizes.breakdown;
  arch : AP.result;
}

let size_rows : size_row list Lazy.t =
  lazy
    (List.map
       (fun w ->
         let scale = scale_of w in
         progress "measuring %s (scale %d)" w.Spec.name scale;
         let w1 =
           Builder.run_streaming ~program:(Spec.compile w)
             ~input:(Spec.input w ~scale) ()
         in
         let orig = Sizes.original w1 in
         let tier1 = Sizes.current w1 in
         let w2 = Builder.pack w1 in
         let tier2 = Sizes.current w2 in
         (* Table 4's architecture profile reads the raw trace *)
         let arch = AP.of_trace (Spec.run ~scale w).Interp.trace in
         {
           name = w.Spec.name;
           stmts = w1.W.stats.W.stmts_executed;
           orig;
           tier1;
           tier2;
           arch;
         })
       Spec.all)

let avg f rows =
  List.fold_left (fun acc r -> acc +. f r) 0. rows
  /. float_of_int (List.length rows)

let table1 () =
  let rows = Lazy.force size_rows in
  let data =
    List.map
      (fun r ->
        [
          r.name;
          Table.millions r.stmts;
          Table.f2 (mb r.orig.Sizes.total_bytes);
          Table.f2 (mb r.tier2.Sizes.total_bytes);
          Table.f2 (r.orig.Sizes.total_bytes /. r.tier2.Sizes.total_bytes);
        ])
      rows
    @ [
        [
          "Avg.";
          Table.f2 (avg (fun r -> float_of_int r.stmts /. 1e6) rows);
          Table.f2 (avg (fun r -> mb r.orig.Sizes.total_bytes) rows);
          Table.f2 (avg (fun r -> mb r.tier2.Sizes.total_bytes) rows);
          Table.f2
            (avg
               (fun r -> r.orig.Sizes.total_bytes /. r.tier2.Sizes.total_bytes)
               rows);
        ];
      ]
  in
  Table.print ~title:"Table 1. WET sizes."
    ~header:
      [ "Benchmark"; "Stmts Executed (Millions)"; "Orig. WET (MB)";
        "Comp. WET (MB)"; "Orig./Comp." ]
    data

let table2 () =
  let rows = Lazy.force size_rows in
  let data =
    List.map
      (fun r ->
        [
          r.name;
          Table.f2 (mb r.orig.Sizes.ts_bytes);
          Table.f2 (r.orig.Sizes.ts_bytes /. r.tier1.Sizes.ts_bytes);
          Table.f2 (r.orig.Sizes.ts_bytes /. r.tier2.Sizes.ts_bytes);
          Table.f2 (mb r.orig.Sizes.vals_bytes);
          Table.f2 (r.orig.Sizes.vals_bytes /. r.tier1.Sizes.vals_bytes);
          Table.f2 (r.orig.Sizes.vals_bytes /. r.tier2.Sizes.vals_bytes);
        ])
      rows
    @ [
        [
          "Avg.";
          Table.f2 (avg (fun r -> mb r.orig.Sizes.ts_bytes) rows);
          Table.f2
            (avg (fun r -> r.orig.Sizes.ts_bytes /. r.tier1.Sizes.ts_bytes) rows);
          Table.f2
            (avg (fun r -> r.orig.Sizes.ts_bytes /. r.tier2.Sizes.ts_bytes) rows);
          Table.f2 (avg (fun r -> mb r.orig.Sizes.vals_bytes) rows);
          Table.f2
            (avg
               (fun r -> r.orig.Sizes.vals_bytes /. r.tier1.Sizes.vals_bytes)
               rows);
          Table.f2
            (avg
               (fun r -> r.orig.Sizes.vals_bytes /. r.tier2.Sizes.vals_bytes)
               rows);
        ];
      ]
  in
  Table.print ~title:"Table 2. Effect of compression on node labels."
    ~header:
      [ "Benchmark"; "ts Orig. (MB)"; "ts Orig./Tier-1"; "ts Orig./Tier-2";
        "vals Orig. (MB)"; "vals Orig./Tier-1"; "vals Orig./Tier-2" ]
    data

let table3 () =
  let rows = Lazy.force size_rows in
  let data =
    List.map
      (fun r ->
        [
          r.name;
          Table.f2 (mb r.orig.Sizes.edge_bytes);
          Table.f2 (r.orig.Sizes.edge_bytes /. r.tier1.Sizes.edge_bytes);
          Table.f2 (r.orig.Sizes.edge_bytes /. r.tier2.Sizes.edge_bytes);
        ])
      rows
    @ [
        [
          "Avg.";
          Table.f2 (avg (fun r -> mb r.orig.Sizes.edge_bytes) rows);
          Table.f2
            (avg
               (fun r -> r.orig.Sizes.edge_bytes /. r.tier1.Sizes.edge_bytes)
               rows);
          Table.f2
            (avg
               (fun r -> r.orig.Sizes.edge_bytes /. r.tier2.Sizes.edge_bytes)
               rows);
        ];
      ]
  in
  Table.print ~title:"Table 3. Effect of compression on edge labels."
    ~header:
      [ "Benchmark"; "Edge labels Orig. (MB)"; "Orig./Tier-1"; "Orig./Tier-2" ]
    data

let table4 () =
  let rows = Lazy.force size_rows in
  let data =
    List.map
      (fun r ->
        let b, l, s = AP.history_bytes r.arch in
        [ r.name; Table.f2 (mb b); Table.f2 (mb l); Table.f2 (mb s) ])
      rows
    @ [
        (let sum f =
           avg (fun r -> let b, l, s = AP.history_bytes r.arch in f (b, l, s)) rows
         in
         [
           "Avg.";
           Table.f2 (mb (sum (fun (b, _, _) -> b)));
           Table.f2 (mb (sum (fun (_, l, _) -> l)));
           Table.f2 (mb (sum (fun (_, _, s) -> s)));
         ]);
      ]
  in
  Table.print
    ~title:
      "Table 4. Architecture specific information (uncompressed 1-bit \
       histories)."
    ~header:[ "Benchmark"; "Branch (MB)"; "Load (MB)"; "Store (MB)" ]
    data

let fig8 () =
  let rows = Lazy.force size_rows in
  let bars =
    List.concat_map
      (fun r ->
        [
          ( r.name ^ " orig",
            [ r.orig.Sizes.ts_bytes; r.orig.Sizes.vals_bytes; r.orig.Sizes.edge_bytes ] );
          ( r.name ^ " tier1",
            [ r.tier1.Sizes.ts_bytes; r.tier1.Sizes.vals_bytes; r.tier1.Sizes.edge_bytes ] );
          ( r.name ^ " tier2",
            [ r.tier2.Sizes.ts_bytes; r.tier2.Sizes.vals_bytes; r.tier2.Sizes.edge_bytes ] );
        ])
      rows
  in
  print_string
    (Chart.stacked
       ~title:
         "Figure 8. Relative sizes of WET components (ts / vals / edge \
          labels) before and after each tier."
       ~width:50
       ~legend:[ ('t', "ts-nodes"); ('v', "vals-nodes"); ('#', "ts pairs-edges") ]
       bars);
  print_newline ()

let fig9 () =
  print_endline
    "Figure 9. Scalability of compression ratio (ratio vs execution length).";
  List.iter
    (fun w ->
      let base = scale_of w in
      let points =
        List.map
          (fun q ->
            let scale = max 1 (base * q / 4) in
            let w1 =
              Builder.run_streaming ~program:(Spec.compile w)
                ~input:(Spec.input w ~scale) ()
            in
            let stmts = w1.W.stats.W.stmts_executed in
            let orig = Sizes.original w1 in
            let w2 = Builder.pack w1 in
            let t2 = Sizes.current w2 in
            progress "fig9 %s scale %d: %d stmts" w.Spec.name scale stmts;
            ( Printf.sprintf "%5.2fM stmts" (float_of_int stmts /. 1e6),
              orig.Sizes.total_bytes /. t2.Sizes.total_bytes ))
          [ 1; 2; 3; 4 ]
      in
      print_string
        (Chart.series ~title:("  " ^ w.Spec.name) ~ylabel:"x" points))
    Spec.all;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Timing experiments (Tables 5-9)                                     *)
(* ------------------------------------------------------------------ *)

type timing_ctx = {
  tw : Spec.t;
  tstmts : int;
  w1 : W.t;
  w2 : W.t;
  build_s : float;
}

let timing_rows : timing_ctx list Lazy.t =
  lazy
    (List.map
       (fun w ->
         progress "timing build %s" w.Spec.name;
         let program = Spec.compile w in
         let input = Spec.input w ~scale:w.Spec.timing_scale in
         (* interpretation and tier-1 construction are one fused pass,
            timed together as the paper's end-to-end figure is *)
         let w1, build_s =
           time "bench.build" (fun () ->
               Builder.run_streaming ~program ~input ())
         in
         let w2 = Builder.pack w1 in
         { tw = w; tstmts = w1.W.stats.W.stmts_executed; w1; w2; build_s })
       Spec.all)

let table5 () =
  let rows = Lazy.force timing_rows in
  let data =
    List.map
      (fun r ->
        [ r.tw.Spec.name; Table.millions r.tstmts; Table.f2 r.build_s ])
      rows
    @ [
        [
          "Avg.";
          Table.f2 (avg (fun r -> float_of_int r.tstmts /. 1e6) rows);
          Table.f2 (avg (fun r -> r.build_s) rows);
        ];
      ]
  in
  Table.print ~title:"Table 5. WET construction times (interpretation included)."
    ~header:[ "Benchmark"; "Stmts Executed (Millions)"; "Construction (sec)" ]
    data

(* Control-flow trace extraction, forward then backward (Table 6). The
   extracted trace is one 4-byte block id per block execution. *)
let cf_extract s dir =
  let count = ref 0 in
  let _ = Query.Session.control_flow s dir ~f:(fun _ _ -> incr count) in
  !count

let table6 () =
  let rows = Lazy.force timing_rows in
  let data =
    List.map
      (fun r ->
        progress "table6 %s" r.tw.Spec.name;
        let s1 = W.open_session r.w1 and s2 = W.open_session r.w2 in
        Query.Session.park s1 Query.Forward;
        Query.Session.park s2 Query.Forward;
        let blocks = r.w1.W.stats.W.block_execs in
        let trace_mb = mb (4. *. float_of_int blocks) in
        let measure sess dir =
          let n, s = time "bench.query.cf" (fun () -> cf_extract sess dir) in
          assert (n = blocks);
          (Printf.sprintf "%.3f" s, trace_mb /. Float.max 1e-9 s)
        in
        (* forward passes leave cursors at the end, ready for backward *)
        let f1s, f1r = measure s1 Query.Forward in
        let b1s, b1r = measure s1 Query.Backward in
        let f2s, f2r = measure s2 Query.Forward in
        let b2s, b2r = measure s2 Query.Backward in
        [
          r.tw.Spec.name;
          Table.f2 trace_mb;
          f1s; Table.f1 f1r;
          f2s; Table.f1 f2r;
          b1s; Table.f1 b1r;
          b2s; Table.f1 b2r;
        ])
      rows
  in
  Table.print
    ~title:
      "Table 6. Response times for control flow traces (forward and \
       backward, tier-1 vs tier-2)."
    ~header:
      [ "Benchmark"; "CF trace (MB)";
        "Fwd T1 (s)"; "MB/s"; "Fwd T2 (s)"; "MB/s";
        "Bwd T1 (s)"; "MB/s"; "Bwd T2 (s)"; "MB/s" ]
    data

let table7 () =
  let rows = Lazy.force timing_rows in
  let data =
    List.map
      (fun r ->
        progress "table7 %s" r.tw.Spec.name;
        let measure wet =
          let sess = W.open_session wet in
          let n, s =
            time "bench.query.load_values" (fun () ->
                Query.Session.load_values sess ~f:(fun _ _ -> ()))
          in
          (mb (4. *. float_of_int n), s)
        in
        let sz, t1 = measure r.w1 in
        let _, t2 = measure r.w2 in
        [
          r.tw.Spec.name; Table.f2 sz;
          Printf.sprintf "%.3f" t1; Table.f1 (sz /. Float.max 1e-9 t1);
          Printf.sprintf "%.3f" t2; Table.f1 (sz /. Float.max 1e-9 t2);
        ])
      rows
  in
  Table.print
    ~title:"Table 7. Response times for per-instruction load value traces."
    ~header:
      [ "Benchmark"; "Ld value trace (MB)"; "Tier-1 (s)"; "MB/s";
        "Tier-2 (s)"; "MB/s" ]
    data

let table8 () =
  let rows = Lazy.force timing_rows in
  let data =
    List.map
      (fun r ->
        progress "table8 %s" r.tw.Spec.name;
        let measure wet =
          let sess = W.open_session wet in
          let n, s =
            time "bench.query.addresses" (fun () ->
                Query.Session.addresses sess ~f:(fun _ _ -> ()))
          in
          (mb (4. *. float_of_int n), s)
        in
        let sz, t1 = measure r.w1 in
        let _, t2 = measure r.w2 in
        [
          r.tw.Spec.name; Table.f2 sz;
          Printf.sprintf "%.3f" t1; Table.f1 (sz /. Float.max 1e-9 t1);
          Printf.sprintf "%.3f" t2; Table.f1 (sz /. Float.max 1e-9 t2);
        ])
      rows
  in
  Table.print
    ~title:
      "Table 8. Response times for per-instruction load/store address \
       traces."
    ~header:
      [ "Benchmark"; "Address trace (MB)"; "Tier-1 (s)"; "MB/s";
        "Tier-2 (s)"; "MB/s" ]
    data

(* 25 slice criteria per benchmark: value-producing copies picked by a
   seeded PRNG, sliced at their last execution instance (Table 9). *)
let slice_criteria wet n =
  let defs =
    Array.of_list
      (Query.copies_matching wet (fun i -> Instr.has_def i))
  in
  let rng = Wet_util.Prng.create 20040101 in
  List.init n (fun _ ->
      let c = defs.(Wet_util.Prng.int rng (Array.length defs)) in
      (c, (W.node_of_copy wet c).W.n_nexec - 1))

let table9 () =
  let rows = Lazy.force timing_rows in
  let data =
    List.map
      (fun r ->
        progress "table9 %s" r.tw.Spec.name;
        let criteria = slice_criteria r.w1 25 in
        let run wet =
          let sess = W.open_session wet in
          let _, s =
            time "bench.slice.backward" (fun () ->
                List.iter
                  (fun (c, i) -> ignore (Slice.Session.backward sess c i))
                  criteria)
          in
          s /. float_of_int (List.length criteria)
        in
        let t1 = run r.w1 in
        let t2 = run r.w2 in
        [
          r.tw.Spec.name;
          Printf.sprintf "%.4f" t1;
          Printf.sprintf "%.4f" t2;
          Table.f2 (t2 /. Float.max 1e-9 t1);
        ])
      rows
  in
  Table.print ~title:"Table 9. WET slices (avg over 25 slices)."
    ~header:[ "Benchmark"; "Tier-1 (sec)"; "Tier-2 (sec)"; "Tier-2/Tier-1" ]
    data

(* ------------------------------------------------------------------ *)
(* Ablation: bidirectional predictor streams vs Sequitur (§4's claim)  *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline
    "Ablation. Generic stream compressors on real WET label streams\n\
     (gcc timing run): bits per value, lower is better. The paper argues\n\
     Sequitur is traversable but weaker than predictor-based compression\n\
     on value streams.";
  let r = List.nth (Lazy.force timing_rows) 1 (* 126.gcc *) in
  let wet = r.w1 in
  (* representative streams *)
  let node =
    Array.to_list wet.W.nodes
    |> List.sort (fun a b -> compare b.W.n_nexec a.W.n_nexec)
    |> List.hd
  in
  let ts_stream = W.Stream.contents wet.W.node_ts.(node.W.n_id) in
  let pattern_stream =
    match
      Array.to_list wet.W.node_patterns.(node.W.n_id) |> List.filter_map Fun.id
    with
    | p :: _ -> W.Stream.contents p
    | [] -> [||]
  in
  let uvals_stream =
    let best = ref [||] in
    Array.iter
      (fun u ->
        match u with
        | Some s ->
          let a = W.Stream.contents s in
          if Array.length a > Array.length !best then best := a
        | None -> ())
      wet.W.copy_uvals;
    !best
  in
  let streams =
    [
      ("node timestamps", ts_stream);
      ("group pattern", pattern_stream);
      ("largest UVals", uvals_stream);
    ]
  in
  (* a unidirectional VPC-style coding: 1 bit per hit, 33 per miss, no
     stored tables (they are rebuilt while decompressing) — the paper's
     [3]; its weakness is that it only decompresses front to back *)
  let unidir_bits arr =
    let best = ref (32. *. float_of_int (Array.length arr)) in
    List.iter
      (fun p ->
        let acc = Wet_predict.Predictor.accuracy p arr in
        let n = float_of_int (Array.length arr) in
        let bits = (acc *. n) +. (33. *. (1. -. acc) *. n) in
        if bits < !best then best := bits)
      [
        Wet_predict.Predictor.fcm ~ctx:2 ();
        Wet_predict.Predictor.dfcm ~ctx:2 ();
        Wet_predict.Predictor.last_n ~n:4;
        Wet_predict.Predictor.stride ();
      ];
    !best
  in
  let rows =
    List.filter_map
      (fun (name, arr) ->
        if Array.length arr < 4 then None
        else begin
          let n = float_of_int (Array.length arr) in
          let bidir =
            let s = Wet_bistream.Stream.compress arr in
            (Wet_bistream.Stream.method_name s, float_of_int (Wet_bistream.Stream.bits s) /. n)
          in
          let seq =
            float_of_int (Wet_sequitur.Sequitur.bits (Wet_sequitur.Sequitur.build arr)) /. n
          in
          Some
            [
              name;
              Table.i (Array.length arr);
              fst bidir;
              Table.f2 (snd bidir);
              Table.f2 (unidir_bits arr /. n);
              Table.f2 seq;
              Table.f2 32.;
            ]
        end)
      streams
  in
  Table.print
    ~title:
      "Bidirectional predictor streams vs unidirectional VPC coding vs \
       Sequitur."
    ~header:
      [ "Stream"; "Length"; "Best method"; "Bidir bits/val";
        "Unidir bits/val"; "Sequitur bits/val"; "Raw bits/val" ]
    rows

(* Method x context-size sensitivity of the bidirectional compressors,
   on a real timestamp stream: the data behind the paper's choice to try
   "three versions with differing context size" per method. *)
let ctx_ablation () =
  print_endline
    "Ablation. Compression (x over raw) of every (method, context) pair\n\
     on the hottest node's timestamp stream and largest UVals stream\n\
     (126.gcc timing run).";
  let r = List.nth (Lazy.force timing_rows) 1 in
  let wet = r.w1 in
  let hottest =
    Array.fold_left
      (fun best (n : W.node) -> if n.W.n_nexec > best.W.n_nexec then n else best)
      wet.W.nodes.(0) wet.W.nodes
  in
  let uvals =
    let best = ref [||] in
    Array.iter
      (function
        | Some s ->
          let a = W.Stream.contents s in
          if Array.length a > Array.length !best then best := a
        | None -> ())
      wet.W.copy_uvals;
    !best
  in
  let streams =
    [
      ("timestamps", W.Stream.contents wet.W.node_ts.(hottest.W.n_id));
      ("uvals", uvals);
    ]
  in
  List.iter
    (fun (sname, arr) ->
      if Array.length arr >= 4 then begin
        let rows =
          List.map
            (fun m ->
              [ Wet_bistream.Bidir.meth_name m ]
              @ List.map
                  (fun ctx ->
                    let b = Wet_bistream.Bidir.compress m ~ctx arr in
                    Table.f2
                      (float_of_int (32 * Array.length arr)
                       /. float_of_int (Wet_bistream.Bidir.compressed_bits b)))
                  [ 1; 2; 4; 8 ])
            Wet_bistream.Bidir.all_meths
        in
        Table.print
          ~title:(Printf.sprintf "%s stream (%d values)." sname (Array.length arr))
          ~header:[ "Method"; "ctx=1"; "ctx=2"; "ctx=4"; "ctx=8" ]
          rows
      end)
    streams

(* Optimised vs unoptimised code: how scalar optimisation changes what
   the WET sees. Trimaran profiles optimised intermediate code; this
   quantifies the difference on our side. *)
let opt_ablation () =
  print_endline
    "Ablation. WET metrics on unoptimised (-O0) vs optimised (-O1) code.";
  let rows =
    List.concat_map
      (fun name ->
        let w = Spec.find name in
        let scale = w.Spec.timing_scale in
        List.map
          (fun (tag, level) ->
            let program = Wet_opt.Driver.optimize ~level (Spec.compile w) in
            let w1 =
              Builder.run_streaming ~program ~input:(Spec.input w ~scale) ()
            in
            let orig = Sizes.original w1 in
            let w2 = Builder.pack w1 in
            let t2 = Sizes.current w2 in
            [
              w.Spec.name ^ " " ^ tag;
              Table.millions w1.W.stats.W.stmts_executed;
              Table.f2 (mb orig.Sizes.total_bytes);
              Table.f2 (mb t2.Sizes.total_bytes);
              Table.f2 (orig.Sizes.total_bytes /. t2.Sizes.total_bytes);
            ])
          [ ("-O0", 0); ("-O1", 1) ])
      [ "126.gcc"; "181.mcf"; "300.twolf" ]
  in
  Table.print ~title:"Optimisation ablation."
    ~header:
      [ "Benchmark"; "Stmts (M)"; "Orig. WET (MB)"; "Comp. WET (MB)";
        "Ratio" ]
    rows

(* ------------------------------------------------------------------ *)
(* Persisted bench observatory (BENCH_PR*.json + `wet bench-check`)    *)
(* ------------------------------------------------------------------ *)

let out_file = ref "BENCH_PR10.json"

module Bench = Wet_insight.Bench
module Qprof = Wet_qprof.Qprof

(* The fixed query sweep the observatory profiles: both directions of
   control flow, load values and addresses, all on the tier-2 WET — the
   shape of Tables 6–8 in one deterministic unit of work. *)
let query_sweep s =
  Query.Session.park s Query.Forward;
  ignore (Query.Session.control_flow s Query.Forward ~f:(fun _ _ -> ()));
  ignore (Query.Session.control_flow s Query.Backward ~f:(fun _ _ -> ()));
  ignore (Query.Session.load_values s ~f:(fun _ _ -> ()));
  ignore (Query.Session.addresses s ~f:(fun _ _ -> ()))

(* One streaming build with peak tracking, against a live-word baseline
   taken after a compaction so earlier garbage doesn't inflate the
   peak. Returns (wet, peak delta in words, shard flushes). *)
let streaming_peak w ~scale =
  let prog = Spec.compile w in
  let input = Spec.input w ~scale in
  let analysis = Wet_cfg.Program_analysis.of_program prog in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let sink = Builder.Sink.create ~track_peak:true analysis in
  let _ =
    Interp.run_with_sink ~analysis ~sink:(Builder.Sink.events sink) prog
      ~input
  in
  let wet = Builder.Sink.finish sink in
  let peak = max 0 (Builder.Sink.peak_live_words sink - live0) in
  (wet, peak, Builder.Sink.shard_count sink)

(* Per workload, at its timing scale (a quarter of it with --quick),
   the figures no clock enters: sizes and ratios on both tiers, the
   resident WET, a streaming build's peak and shards, and the decode
   cost of one profiled sweep. Each reads the same on every run of one
   commit, so `wet bench-check` gates them all tightly; timings are
   perfbench's. *)
let observatory () =
  let samples =
    List.map
      (fun w ->
        let scale =
          let s = w.Spec.timing_scale in
          if !quick then max 1 (s / 4) else s
        in
        progress "observatory %s (scale %d)" w.Spec.name scale;
        let w1, build_peak_words, shards = streaming_peak w ~scale in
        let stmts = w1.W.stats.W.stmts_executed in
        let orig = Sizes.original w1 in
        let t1 = Sizes.current w1 in
        let w2 = Builder.pack w1 in
        let t2 = Sizes.current w2 in
        (* one plain sweep leaves the cursors where every later sweep
           leaves them, so the profiled sweep starts from that fixed
           point and its cost reads the same on every run *)
        let sweep = W.open_session w2 in
        query_sweep sweep;
        let scope =
          Qprof.make_scope ~tally:(W.Session.tally sweep)
            ~recorder:(W.Session.recorder sweep) ()
        in
        let _, prof =
          Qprof.profiled ~scope
            ~params:[ ("workload", w.Spec.name) ]
            "bench/sweep"
            (fun () -> query_sweep sweep)
        in
        let cost = prof.Qprof.p_total in
        let per_label b = b.Sizes.total_bytes /. float_of_int stmts in
        {
          Bench.workload = w.Spec.name;
          scale;
          stmts;
          bytes_per_label_t1 = per_label t1;
          bytes_per_label_t2 = per_label t2;
          ratio_t1 = orig.Sizes.total_bytes /. t1.Sizes.total_bytes;
          ratio_t2 = orig.Sizes.total_bytes /. t2.Sizes.total_bytes;
          wet_words = Obj.reachable_words (Obj.repr w1);
          build_peak_words;
          shards;
          query_decode_steps = Qprof.decode_steps cost;
          query_bits_touched = cost.Qprof.c_bits;
          query_switches = cost.Qprof.c_switches;
        })
      Spec.all
  in
  Bench.save { Bench.samples } !out_file;
  Table.print
    ~title:
      (Printf.sprintf "Bench observatory (%s scale) -> %s."
         (if !quick then "quick" else "timing")
         !out_file)
    ~header:
      [ "Workload"; "Scale"; "Stmts"; "B/label T1"; "B/label T2"; "Ratio T1";
        "Ratio T2"; "WET (Mw)"; "Peak (Mw)"; "Shards"; "Sweep steps";
        "Sweep bits"; "Switches" ]
    (List.map
       (fun (s : Bench.sample) ->
         [
           s.Bench.workload;
           Table.i s.Bench.scale;
           Table.millions s.Bench.stmts;
           Table.f2 s.Bench.bytes_per_label_t1;
           Table.f2 s.Bench.bytes_per_label_t2;
           Table.f2 s.Bench.ratio_t1;
           Table.f2 s.Bench.ratio_t2;
           Table.f2 (mw s.Bench.wet_words);
           Table.f2 (mw s.Bench.build_peak_words);
           Table.i s.Bench.shards;
           Table.i s.Bench.query_decode_steps;
           Table.i s.Bench.query_bits_touched;
           Table.i s.Bench.query_switches;
         ])
       samples)

(* Memory smoke for CI: a streaming build's peak live-word delta must
   stay within a fixed multiple of the finished WET plus a constant
   floor covering one shard's buffers and interpreter state — the
   O(shard size + final WET) bound the sink advertises. Runs at quick
   scales; exit 3 on any violation, mirroring bench-check. *)
let memsmoke () =
  let failures = ref 0 in
  let rows =
    List.map
      (fun w ->
        let scale = max 1 (w.Spec.timing_scale / 4) in
        progress "memsmoke %s (scale %d)" w.Spec.name scale;
        let wet, peak, shards = streaming_peak w ~scale in
        let wet_words = Obj.reachable_words (Obj.repr wet) in
        let budget = (4 * wet_words) + 4_000_000 in
        if peak > budget then incr failures;
        [
          w.Spec.name;
          Table.f2 (mw peak);
          Table.f2 (mw wet_words);
          Table.i shards;
          Table.f2 (mw budget);
          (if peak > budget then "EXCEEDED" else "ok");
        ])
      Spec.all
  in
  Table.print
    ~title:
      "Memory smoke: streaming peak vs budget (4 x WET + 4 Mwords), quick \
       scales."
    ~header:
      [ "Workload"; "Peak (Mw)"; "WET (Mw)"; "Shards"; "Budget (Mw)";
        "Status" ]
    rows;
  if !failures > 0 then begin
    Printf.printf
      "memsmoke: %d workload(s) exceeded the streaming memory budget\n"
      !failures;
    exit 3
  end
  else print_endline "memsmoke: all streaming peaks within budget"

let all_targets =
  [
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("table4", table4); ("table5", table5); ("table6", table6);
    ("table7", table7); ("table8", table8); ("table9", table9);
    ("fig8", fig8); ("fig9", fig9); ("ablation", ablation);
    ("optablation", opt_ablation); ("ctxablation", ctx_ablation);
    ("observatory", observatory); ("memsmoke", memsmoke);
  ]

let () =
  (* Hand-rolled flag parsing: positional target names plus --quick,
     --quiet and --out FILE. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--" :: rest -> parse acc rest
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--quiet" :: rest ->
      Wet_obs.Log.quiet := true;
      parse acc rest
    | "--out" :: path :: rest ->
      out_file := path;
      parse acc rest
    | [ "--out" ] ->
      prerr_endline "--out needs an argument";
      exit 1
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let targets =
    match args with
    | [] -> all_targets
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n all_targets with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown target %s (have: %s)\n" n
              (String.concat ", " (List.map fst all_targets));
            exit 1)
        names
  in
  List.iter
    (fun (_, f) ->
      f ();
      print_newline ())
    targets
