(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (§5) on the nine synthetic workloads, plus an
   ablation (bidirectional streams vs Sequitur) and Bechamel
   micro-benchmarks of the kernel behind each table.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe table1 fig8  -- a subset
     dune exec bench/main.exe -- --quick   -- quarter-scale sizes

   Absolute numbers differ from the paper (its substrate was Trimaran +
   SPEC on 2004 hardware); the shapes are the reproduction target. See
   EXPERIMENTS.md. *)

module Spec = Wet_workloads.Spec
module Interp = Wet_interp.Interp
module T = Wet_interp.Trace
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

let progress fmt = Wet_obs.Log.progress fmt

let scale_of w =
  let s = w.Spec.default_scale in
  if !quick then max 1 (s / 4) else s

let mb = Sizes.mb

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
  construction_s : float;
}

let size_rows : size_row list Lazy.t =
  lazy
    (List.map
       (fun w ->
         progress "measuring %s (scale %d)" w.Spec.name (scale_of w);
         let res = Spec.run ~scale:(scale_of w) w in
         let arch = AP.of_trace res.Interp.trace in
         let w1, construction_s =
           time "bench.build.tier1" (fun () -> Builder.build res.Interp.trace)
         in
         let orig = Sizes.original w1 in
         let tier1 = Sizes.current w1 in
         let w2 = Builder.pack w1 in
         let tier2 = Sizes.current w2 in
         {
           name = w.Spec.name;
           stmts = res.Interp.stmts_executed;
           orig;
           tier1;
           tier2;
           arch;
           construction_s;
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
            let res = Spec.run ~scale w in
            let w1 = Builder.build res.Interp.trace in
            let orig = Sizes.original w1 in
            let w2 = Builder.pack w1 in
            let t2 = Sizes.current w2 in
            progress "fig9 %s scale %d: %d stmts" w.Spec.name scale
              res.Interp.stmts_executed;
            ( Printf.sprintf "%5.2fM stmts"
                (float_of_int res.Interp.stmts_executed /. 1e6),
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
         let res = Spec.run ~scale:w.Spec.timing_scale w in
         let w1, build_s =
           time "bench.build.tier1" (fun () -> Builder.build res.Interp.trace)
         in
         let w2 = Builder.pack w1 in
         { tw = w; tstmts = res.Interp.stmts_executed; w1; w2; build_s })
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
  Table.print ~title:"Table 5. WET construction times."
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
  let ts_stream = W.Stream.contents node.W.n_ts in
  let pattern_stream =
    match
      Array.to_list node.W.n_groups
      |> List.filter_map (fun g -> g.W.g_pattern)
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
    [ ("timestamps", W.Stream.contents hottest.W.n_ts); ("uvals", uvals) ]
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
            let prog = Wet_opt.Driver.optimize ~level (Spec.compile w) in
            let res =
              Interp.run prog ~input:(Spec.input w ~scale)
            in
            let w1 = Builder.build res.Interp.trace in
            let orig = Sizes.original w1 in
            let w2 = Builder.pack w1 in
            let t2 = Sizes.current w2 in
            [
              w.Spec.name ^ " " ^ tag;
              Table.millions res.Interp.stmts_executed;
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
(* Bechamel micro-benchmarks: the kernel behind each table             *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  print_endline
    "Bechamel micro-benchmarks (one kernel per table/figure; ns per run).";
  let w = Spec.find "parser" in
  let res = Spec.run ~scale:60 w in
  let trace = res.Interp.trace in
  let w1 = Builder.build trace in
  let w2 = Builder.pack w1 in
  let hottest =
    Array.fold_left
      (fun best (n : W.node) ->
        if n.W.n_nexec > best.W.n_nexec then n else best)
      w1.W.nodes.(0) w1.W.nodes
  in
  let ts = W.Stream.contents hottest.W.n_ts in
  let packed = Wet_bistream.Stream.compress ts in
  let tests =
    [
      (* Table 1/5: construction *)
      Test.make ~name:"table1+5: build tier-1 WET"
        (Staged.stage (fun () -> ignore (Builder.build trace)));
      (* Tables 1-3: tier-2 packing *)
      Test.make ~name:"tables1-3: pack to tier-2"
        (Staged.stage (fun () -> ignore (Builder.pack w1)));
      (* Table 4: architectural replay *)
      Test.make ~name:"table4: arch replay"
        (Staged.stage (fun () -> ignore (AP.of_trace trace)));
      (* Table 6: control-flow extraction *)
      Test.make ~name:"table6: cf trace (tier-2)"
        (Staged.stage
           (let s = W.open_session w2 in
            fun () ->
              Query.Session.park s Query.Forward;
              ignore
                (Query.Session.control_flow s Query.Forward
                   ~f:(fun _ _ -> ()))));
      (* Table 7 *)
      Test.make ~name:"table7: load values (tier-2)"
        (Staged.stage
           (let s = W.open_session w2 in
            fun () ->
              ignore (Query.Session.load_values s ~f:(fun _ _ -> ()))));
      (* Table 8 *)
      Test.make ~name:"table8: addresses (tier-2)"
        (Staged.stage
           (let s = W.open_session w2 in
            fun () ->
              ignore (Query.Session.addresses s ~f:(fun _ _ -> ()))));
      (* Table 9 *)
      Test.make ~name:"table9: one backward slice (tier-2)"
        (Staged.stage
           (let s = W.open_session w2 in
            let c, i = List.hd (slice_criteria w2 1) in
            fun () -> ignore (Slice.Session.backward s c i)));
      (* Figures 8/9 reduce to stream compression *)
      Test.make ~name:"fig8+9: compress a ts stream"
        (Staged.stage (fun () ->
             ignore (Wet_bistream.Stream.compress ts)));
      Test.make ~name:"fig8+9: step a packed stream"
        (Staged.stage
           (let cur =
              Wet_bistream.Stream.Cursor.make
                ~tally:(Wet_bistream.Telemetry.make ()) ~label:0 packed
            in
            fun () ->
              Wet_bistream.Stream.Cursor.seek cur 0;
              for _ = 1 to min 256 (Array.length ts) do
                ignore (Wet_bistream.Stream.Cursor.step_forward cur)
              done));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"wet" ~fmt:"%s %s" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (x :: _) -> Printf.sprintf "%.0f" x
        | Some [] | None -> "n/a"
      in
      rows := [ name; est ] :: !rows)
    results;
  Table.print ~title:"Micro-benchmarks."
    ~header:[ "Kernel"; "ns/run" ]
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Persisted bench observatory (BENCH_PR*.json + `wet bench-check`)    *)
(* ------------------------------------------------------------------ *)

let repeat = ref 3

let warmup = ref 1

let out_file = ref "BENCH_PR10.json"

module Bench = Wet_insight.Bench
module Qprof = Wet_qprof.Qprof
module Qlog = Wet_qprof.Qlog
module Store = Wet_core.Store
module Serve = Wet_serve.Server
module Serve_client = Wet_serve.Client
module SP = Wet_serve.Protocol

(* The sweep is 4 queries (cf fwd, cf bwd, load values, addresses); the
   per-query table columns divide by this. *)
let sweep_queries = 4

(* The fixed query sweep every observatory sample times: both directions
   of control flow, load values and addresses, all on the tier-2 WET —
   the shape of Tables 6–8 in one deterministic unit of work. Every
   sweep of a workload runs on one session, so each starts from the
   cursors the last one left, and the cost figures below read that
   session's ledger. *)
let query_sweep s =
  Query.Session.park s Query.Forward;
  ignore (Query.Session.control_flow s Query.Forward ~f:(fun _ _ -> ()));
  ignore (Query.Session.control_flow s Query.Backward ~f:(fun _ _ -> ()));
  ignore (Query.Session.load_values s ~f:(fun _ _ -> ()));
  ignore (Query.Session.addresses s ~f:(fun _ _ -> ()))

let timed_ms f =
  let t0 = Wet_obs.Clock.now_ns () in
  let x = f () in
  (x, float_of_int (Wet_obs.Clock.now_ns () - t0) /. 1e6)

(* [warmup] discarded runs, then [repeat] timed ones (ms). *)
let sampled f =
  for _ = 1 to !warmup do
    ignore (f ())
  done;
  List.init !repeat (fun _ -> snd (timed_ms f))

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

(* One fused interp+build, the `wet build` hot path. With [progress] the
   whole live-observability stack a user gets from `--progress` is
   armed — sink enabled, heartbeats on, a reporter emitting JSONL to
   /dev/null — so stream_progress_p50_ms minus stream_p50_ms is what
   watching a build live actually costs. *)
let streaming_build ?(progress = false) w ~scale =
  let prog = Spec.compile w in
  let input = Spec.input w ~scale in
  let analysis = Wet_cfg.Program_analysis.of_program prog in
  let run () =
    let sink = Builder.Sink.create analysis in
    let _ =
      Interp.run_with_sink ~analysis ~sink:(Builder.Sink.events sink) prog
        ~input
    in
    ignore (Builder.Sink.finish sink)
  in
  if not progress then run ()
  else begin
    let was_enabled = !Wet_obs.Sink.enabled in
    let hb = !Wet_obs.Sink.heartbeat_every in
    let oc = open_out "/dev/null" in
    let reporter =
      Wet_pulse.Reporter.create ~interval_ms:0 (Wet_pulse.Reporter.Jsonl oc)
    in
    Wet_obs.Sink.enable ();
    Wet_obs.Sink.heartbeat_every := 50_000;
    Wet_pulse.Reporter.install reporter;
    Fun.protect
      ~finally:(fun () ->
        Wet_pulse.Reporter.uninstall ();
        Wet_obs.Sink.heartbeat_every := hb;
        if not was_enabled then Wet_obs.Sink.disable ();
        close_out oc)
      run
  end

module Journal = Wet_journal.Journal

(* The same fused build with a checkpoint journal armed: one sink
   snapshot + fsync'd append per shard flush into [journal]
   (truncated each run). stream_checkpoint_p50_ms minus stream_p50_ms
   is what durability costs. Mirrors [streaming_build]'s shape —
   compile, input and analysis inside the timed region — so the two
   walls are directly comparable. *)
let streaming_checkpoint w ~scale ~journal =
  let prog = Spec.compile w in
  let input = Spec.input w ~scale in
  ignore
    (Builder.Checkpoint.build ~label:w.Spec.name ~journal ~program:prog
       ~input ())

(* One crash recovery, timed by the recovery path itself: kill a
   checkpointed build at its midpoint shard, then [Checkpoint.resume]
   reads the journal, restores the latest snapshot and re-executes up
   to the watermark. One-shot — a kill is not repeatable inside the
   warmup/repeat loop — so the number is recorded but never gated. *)
let resume_once w ~scale ~shards ~journal =
  let prog = Spec.compile w in
  let input = Spec.input w ~scale in
  let kill_at = max 1 (shards / 2) in
  (match
     Fun.protect
       ~finally:(fun () -> Journal.kill_after_records := None)
       (fun () ->
         Builder.Checkpoint.build ~label:w.Spec.name
           ~on_header_written:(fun () ->
             Journal.kill_after_records := Some kill_at)
           ~journal ~program:prog ~input ())
   with
   | _wet -> ()  (* tiny scales can finish before the kill fires *)
   | exception Journal.Kill_injected -> ());
  let r = Builder.Checkpoint.resume ~journal () in
  r.Builder.Checkpoint.r_resume_ms

(* Serve round trips: save the tier-2 WET to a temp container, stand up
   an in-process daemon on a temp socket, and time [trace] requests end
   to end — encode, socket write, dispatch under the engine lock,
   response read. A discarded first request warms the daemon's cache so
   the sampled walls measure serving, not loading. The daemon enables
   the span sink for its own lifetime; the prior sink state is restored
   so later stream walls stay comparable. *)
let serve_roundtrips w2 ~name =
  let dir = Filename.temp_file "wet_serve_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let wet_path = Filename.concat dir (name ^ ".wet") in
  let socket = Filename.concat dir "bench.sock" in
  let sink_was_enabled = !Wet_obs.Sink.enabled in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ wet_path; socket ];
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    if not sink_was_enabled then Wet_obs.Sink.disable ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      Store.save w2 wet_path;
      (* the daemon gets its own domain so its compute overlaps the
         clients' turnaround — in one runtime the two would serialise
         on the master lock and the concurrent phase could never beat
         the single-client rate *)
      (* the adaptive domain default: the concurrent columns measure
         what a client gets from this machine's daemon — parallel
         dispatch where cores exist, thread time-sharing where not *)
      let daemon =
        Domain.spawn (fun () ->
            Serve.run
              { (Serve.default_config ~socket) with Serve.cache_capacity = 2 })
      in
      let rec connect tries =
        match Serve_client.connect socket with
        | Ok c -> c
        | Error e ->
          if tries = 0 then failwith ("serve bench: " ^ e)
          else begin
            Thread.delay 0.02;
            connect (tries - 1)
          end
      in
      let client = connect 250 in
      let trace_req id =
        SP.request ~wet:wet_path
          ~params:[ ("kind", "cf"); ("limit", "16") ]
          ~id SP.Trace
      in
      let roundtrip_on c id =
        match Serve_client.request c (trace_req id) with
        | Ok r when r.SP.rs_ok -> ()
        | Ok r ->
          failwith
            ("serve bench: " ^ Option.value r.SP.rs_error ~default:"error")
        | Error e -> failwith ("serve bench: " ^ e)
      in
      let roundtrip id = roundtrip_on client id in
      let walls, mt_walls, mt_wall_s =
        Fun.protect
          ~finally:(fun () ->
            ignore (Serve_client.request client (SP.request ~id:0 SP.Shutdown));
            Serve_client.close client;
            Domain.join daemon)
          (fun () ->
            for i = 1 to !warmup + 1 do
              roundtrip i
            done;
            let walls =
              List.init (max 5 (!repeat * 5)) (fun i ->
                  snd (timed_ms (fun () -> roundtrip (100 + i))))
            in
            (* Concurrent phase: 4 clients, each its own connection (so
               each gets its own server-side session over the shared
               resident WET), hammering the same trace verb. Per-request
               walls feed the MT p50; the burst's total wall feeds the
               aggregate requests/sec. *)
            let clients = 4 in
            let per_client = max 5 (!repeat * 5) in
            let results = Array.make clients [] in
            let burst () =
              let threads =
                List.init clients (fun k ->
                    Thread.create
                      (fun k ->
                        let c = connect 250 in
                        Fun.protect
                          ~finally:(fun () -> Serve_client.close c)
                          (fun () ->
                            results.(k) <-
                              List.init per_client (fun i ->
                                  snd
                                    (timed_ms (fun () ->
                                         roundtrip_on c
                                           (1000 + (k * per_client) + i))))))
                      k)
              in
              List.iter Thread.join threads
            in
            let (), mt_wall_ms = timed_ms burst in
            let mt_walls = List.concat (Array.to_list results) in
            (walls, mt_walls, mt_wall_ms /. 1e3))
      in
      let mt_rps =
        if mt_wall_s <= 0. then 0.
        else float_of_int (List.length mt_walls) /. mt_wall_s
      in
      ( Bench.percentile 0.5 walls,
        Bench.percentile 0.95 walls,
        Bench.percentile 0.5 mt_walls,
        mt_rps ))

let observatory () =
  let samples =
    List.map
      (fun w ->
        let scale =
          let s = w.Spec.timing_scale in
          if !quick then max 1 (s / 4) else s
        in
        progress "observatory %s (scale %d)" w.Spec.name scale;
        (* streaming build first, before any trace is materialised, so
           the live-word peak reflects the sink alone *)
        let _wet, peak_words, shards = streaming_peak w ~scale in
        let res = Spec.run ~scale w in
        let stmts = res.Interp.stmts_executed in
        let build_ms = sampled (fun () -> Builder.build res.Interp.trace) in
        let w1 = Builder.build res.Interp.trace in
        let orig = Sizes.original w1 in
        let t1 = Sizes.current w1 in
        let w2 = Builder.pack w1 in
        let t2 = Sizes.current w2 in
        let sweep = W.open_session w2 in
        let scope =
          Qprof.make_scope ~tally:(W.Session.tally sweep)
            ~recorder:(W.Session.recorder sweep) ()
        in
        let query_ms = sampled (fun () -> query_sweep sweep) in
        let stream_ms = sampled (fun () -> streaming_build w ~scale) in
        let stream_progress_ms =
          sampled (fun () -> streaming_build ~progress:true w ~scale)
        in
        (* exact decode cost of one sweep, read off the ledger. By
           this point the sweep has run several times, so the cursor
           start state is the sweep's own fixed point and the figures
           are deterministic run to run. *)
        let _, prof =
          Qprof.profiled ~scope
            ~params:[ ("workload", w.Spec.name) ]
            "bench/sweep"
            (fun () -> query_sweep sweep)
        in
        (* qlog overhead: the same sweep inside a profiling context with
           a qlog line appended, vs the plain walls already sampled *)
        let qlog_ms =
          sampled (fun () ->
              let _, p =
                Qprof.profiled ~scope "bench/sweep" (fun () ->
                    query_sweep sweep)
              in
              Qlog.append "/dev/null" p)
        in
        (* durable-build costs: the checkpointed fused build, then one
           kill-at-midpoint recovery, into a throwaway journal *)
        let journal = Filename.temp_file "wet_bench" ".jrnl" in
        let stream_ckpt_ms, resume_ms =
          Fun.protect
            ~finally:(fun () ->
              try Sys.remove journal with Sys_error _ -> ())
            (fun () ->
              let ckpt =
                sampled (fun () -> streaming_checkpoint w ~scale ~journal)
              in
              (ckpt, resume_once w ~scale ~shards ~journal))
        in
        let stream_p50 = Bench.percentile 0.5 stream_ms in
        let stream_ckpt_p50 = Bench.percentile 0.5 stream_ckpt_ms in
        let checkpoint_overhead_frac =
          if stream_p50 <= 0. then 0.
          else (stream_ckpt_p50 -. stream_p50) /. stream_p50
        in
        let query_p50 = Bench.percentile 0.5 query_ms in
        let qlog_overhead_frac =
          if query_p50 <= 0. then 0.
          else (Bench.percentile 0.5 qlog_ms -. query_p50) /. query_p50
        in
        (* serve round trips against the same tier-2 WET *)
        let serve_p50_ms, serve_p95_ms, serve_mt_p50_ms, serve_mt_rps =
          serve_roundtrips w2 ~name:w.Spec.name
        in
        let build_p50 = Bench.percentile 0.5 build_ms in
        let per_label b = b.Sizes.total_bytes /. float_of_int stmts in
        {
          Bench.workload = w.Spec.name;
          scale;
          stmts;
          stmts_per_sec = float_of_int stmts /. (build_p50 /. 1e3);
          bytes_per_label_t1 = per_label t1;
          bytes_per_label_t2 = per_label t2;
          ratio_t1 = orig.Sizes.total_bytes /. t1.Sizes.total_bytes;
          ratio_t2 = orig.Sizes.total_bytes /. t2.Sizes.total_bytes;
          build_p50_ms = build_p50;
          build_p95_ms = Bench.percentile 0.95 build_ms;
          query_p50_ms = Bench.percentile 0.5 query_ms;
          query_p95_ms = Bench.percentile 0.95 query_ms;
          query_switches = prof.Qprof.p_total.Qprof.c_switches;
          build_peak_words = peak_words;
          wet_words = Obj.reachable_words (Obj.repr w1);
          shards;
          stream_p50_ms = stream_p50;
          stream_progress_p50_ms = Bench.percentile 0.5 stream_progress_ms;
          query_decode_steps = Qprof.decode_steps prof.Qprof.p_total;
          query_bits_touched = prof.Qprof.p_total.Qprof.c_bits;
          qlog_overhead_frac;
          stream_checkpoint_p50_ms = stream_ckpt_p50;
          checkpoint_overhead_frac;
          resume_ms;
          serve_p50_ms;
          serve_p95_ms;
          serve_mt_p50_ms;
          serve_mt_rps;
        })
      Spec.all
  in
  let run =
    {
      Bench.label = "observatory";
      quick = !quick;
      repeat = !repeat;
      warmup = !warmup;
      samples;
    }
  in
  Bench.save run !out_file;
  Table.print
    ~title:
      (Printf.sprintf
         "Bench observatory (%s scale, %d warmup + %d timed) -> %s."
         (if !quick then "quick" else "timing")
         !warmup !repeat !out_file)
    ~header:
      [ "Workload"; "Stmts"; "Stmts/s"; "B/label T2"; "Ratio T2";
        "Build p50 (ms)"; "Query p50 (ms)"; "Switches"; "Peak (Mw)"; "Shards";
        "Stream p50 (ms)"; "Reporter +%"; "Ckpt +%"; "Resume (ms)";
        "Decode/q"; "Bits/q"; "Qlog +%"; "Serve p50 (ms)"; "Serve p95 (ms)";
        "MT p50 (ms)"; "MT req/s" ]
    (List.map
       (fun (s : Bench.sample) ->
         let overhead_pct =
           if s.Bench.stream_p50_ms <= 0. then 0.
           else
             (s.Bench.stream_progress_p50_ms -. s.Bench.stream_p50_ms)
             /. s.Bench.stream_p50_ms *. 100.
         in
         [
           s.Bench.workload;
           Table.millions s.Bench.stmts;
           Printf.sprintf "%.3g" s.Bench.stmts_per_sec;
           Table.f2 s.Bench.bytes_per_label_t2;
           Table.f2 s.Bench.ratio_t2;
           Table.f2 s.Bench.build_p50_ms;
           Table.f2 s.Bench.query_p50_ms;
           Table.i s.Bench.query_switches;
           Table.f2 (float_of_int s.Bench.build_peak_words /. 1e6);
           Table.i s.Bench.shards;
           Table.f2 s.Bench.stream_p50_ms;
           Printf.sprintf "%+.1f" overhead_pct;
           Printf.sprintf "%+.1f" (100. *. s.Bench.checkpoint_overhead_frac);
           Table.f2 s.Bench.resume_ms;
           Table.i (s.Bench.query_decode_steps / sweep_queries);
           Table.i (s.Bench.query_bits_touched / sweep_queries);
           Printf.sprintf "%+.1f" (100. *. s.Bench.qlog_overhead_frac);
           Table.f2 s.Bench.serve_p50_ms;
           Table.f2 s.Bench.serve_p95_ms;
           Table.f2 s.Bench.serve_mt_p50_ms;
           Printf.sprintf "%.3g" s.Bench.serve_mt_rps;
         ])
       samples)

(* Memory smoke for CI: a streaming build's peak live-word delta must
   stay within a fixed multiple of the finished WET plus a constant
   floor covering one shard's buffers and interpreter state — the
   O(shard size + final WET) bound the sink advertises. Runs at quick
   scales; exit 3 on any violation, mirroring bench-check. *)
let memsmoke () =
  let mw n = float_of_int n /. 1e6 in
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
    ("micro", micro); ("observatory", observatory);
    ("memsmoke", memsmoke);
  ]

let () =
  (* Hand-rolled flag parsing: positional target names plus --quick,
     --quiet, --repeat N, --warmup N and --out FILE. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--" :: rest -> parse acc rest
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--quiet" :: rest ->
      Wet_obs.Log.quiet := true;
      parse acc rest
    | (("--repeat" | "--warmup") as flag) :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= (if flag = "--repeat" then 1 else 0) ->
        (if flag = "--repeat" then repeat else warmup) := n;
        parse acc rest
      | _ ->
        Printf.eprintf "%s needs a non-negative integer, got %s\n" flag v;
        exit 1)
    | "--out" :: path :: rest ->
      out_file := path;
      parse acc rest
    | (("--repeat" | "--warmup" | "--out") as flag) :: [] ->
      Printf.eprintf "%s needs an argument\n" flag;
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
