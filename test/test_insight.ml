(* wet_insight: telemetry invariants, the Sizes.detail <-> Sizes.current
   bit agreement, stats JSON round trips, and the bench-check gate
   (including the exactly-at-threshold edge and the files it refuses). *)

module Bidir = Wet_bistream.Bidir
module Stream = Wet_bistream.Stream
module Telemetry = Wet_bistream.Telemetry
module Sequitur = Wet_sequitur.Sequitur
module Spec = Wet_workloads.Spec
module Interp = Wet_interp.Interp
module W = Wet_core.Wet
module Builder = Wet_core.Builder
module Sizes = Wet_core.Sizes
module Json = Wet_insight.Json
module Report = Wet_insight.Report
module Bench = Wet_insight.Bench
module Metric_docs = Wet_insight.Metric_docs
module Obs_diff = Wet_insight.Obs_diff
module Obs_read = Wet_insight.Obs_read
module Metrics = Wet_obs.Metrics

let all_variants =
  List.concat_map (fun m -> [ (m, 1); (m, 2); (m, 4) ]) Bidir.all_meths

let variant_name (m, c) = Printf.sprintf "%s/%d" (Bidir.meth_name m) c

let fixtures =
  [
    ("stride", Array.init 1200 (fun i -> (3 * i) - 100));
    ("periodic", Array.init 1200 (fun i -> [| 3; 1; 4; 1; 5; 9 |].(i mod 6)));
    ( "noisy",
      let rng = Wet_util.Prng.create 7 in
      Array.init 1200 (fun _ -> Wet_util.Prng.int rng 10_000) );
  ]

(* ------------------------------------------------------------------ *)
(* Bidir / Stream telemetry                                            *)
(* ------------------------------------------------------------------ *)

let test_bidir_dictionary () =
  List.iter
    (fun (name, arr) ->
      List.iter
        (fun (m, c) ->
          let tag = Printf.sprintf "%s %s" name (variant_name (m, c)) in
          let b = Bidir.compress m ~ctx:c arr in
          let tl = Bidir.telemetry b in
          Alcotest.(check int)
            (tag ^ " lookups = length + ctx")
            (Array.length arr + c) tl.Bidir.tl_lookups;
          Alcotest.(check int)
            (tag ^ " hits + misses = lookups")
            tl.Bidir.tl_lookups
            (tl.Bidir.tl_hits + tl.Bidir.tl_misses);
          (* construction is not traversal: a cursor over the built
             stream has counted nothing until it moves *)
          let tally = Telemetry.make () in
          let c =
            Stream.Cursor.make ~tally ~label:0
              (Stream.compress_with (`Bidir (m, c)) arr)
          in
          ignore (Stream.Cursor.peek_forward c);
          Alcotest.(check int) (tag ^ " no step counted") 0
            (Telemetry.steps (Telemetry.snapshot ~tally ()));
          (* sliding the window re-classifies entries, but the pops undo
             the pushes: rewinding to the origin restores the figures *)
          Bidir.seek b (Array.length arr);
          Bidir.seek b 0;
          let tl' = Bidir.telemetry b in
          Alcotest.(check int)
            (tag ^ " hits restored after rewind")
            tl.Bidir.tl_hits tl'.Bidir.tl_hits)
        all_variants)
    fixtures

(* The ledger counts a packed cursor's steps: one per value revealed,
   each one dictionary hit or miss touching its flag and payload, a
   switch when the direction turns, and nothing for a peek. *)
let test_bidir_steps () =
  let arr = Array.init 600 (fun i -> i * 7 mod 323) in
  List.iter
    (fun (m, c) ->
      let tag = variant_name (m, c) in
      let s = Stream.compress_with (`Bidir (m, c)) arr in
      let tally = Telemetry.make () in
      let cur = Stream.Cursor.make ~tally ~label:0 s in
      let g () = Telemetry.snapshot ~tally () in
      ignore (Stream.Cursor.to_array cur);
      let tl = g () in
      Alcotest.(check int) (tag ^ " to_array = m fwd steps") 600
        tl.Telemetry.g_fwd;
      Alcotest.(check int) (tag ^ " no bwd yet") 0 tl.Telemetry.g_bwd;
      Alcotest.(check int) (tag ^ " no switch yet") 0 tl.Telemetry.g_switches;
      Alcotest.(check int) (tag ^ " one seek, no step inside") 1
        tl.Telemetry.g_seeks;
      Alcotest.(check int) (tag ^ " each step one hit or miss") 600
        (tl.Telemetry.g_hits + tl.Telemetry.g_misses);
      let hit_bits =
        match m with
        | Bidir.Fcm | Bidir.Dfcm -> 0
        | Bidir.Last_n | Bidir.Last_stride -> [| 0; 0; 1; 2; 2 |].(c)
      in
      Alcotest.(check int) (tag ^ " bits = flag + payload per step")
        (600 + (hit_bits * tl.Telemetry.g_hits) + (32 * tl.Telemetry.g_misses))
        tl.Telemetry.g_bits;
      ignore (Stream.Cursor.step_backward cur);
      let tl = g () in
      Alcotest.(check int) (tag ^ " one bwd") 1 tl.Telemetry.g_bwd;
      Alcotest.(check int) (tag ^ " one switch") 1 tl.Telemetry.g_switches;
      (* peeks are invisible *)
      let before = g () in
      ignore (Stream.Cursor.peek_forward cur);
      ignore (Stream.Cursor.peek_backward cur);
      Alcotest.(check bool) (tag ^ " peeks count nothing") true (before = g ());
      (* dictionary figures are representation, not history *)
      Alcotest.(check int) (tag ^ " lookups unmoved by traversal") (600 + c)
        (Stream.telemetry s).Stream.tl_lookups)
    all_variants

(* compressed_bits must equal the analytic formula reconstructed from
   telemetry alone: per classified entry one flag bit, 32 payload bits
   per miss, hit-payload bits per hit, the 32-bit window, and for the
   FCM family the two tables (sized exactly as [compress] sizes them). *)
let test_bits_accounting () =
  let ceil_log2 n =
    let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
    go 0 1
  in
  List.iter
    (fun (name, arr) ->
      List.iter
        (fun (m, c) ->
          let tag = Printf.sprintf "%s %s" name (variant_name (m, c)) in
          let b = Bidir.compress m ~ctx:c arr in
          let tl = Bidir.telemetry b in
          let hit_payload =
            match m with
            | Bidir.Fcm | Bidir.Dfcm -> 0
            | Bidir.Last_n | Bidir.Last_stride -> ceil_log2 c
          in
          let table_bits =
            match m with
            | Bidir.Fcm | Bidir.Dfcm ->
              let mlen = Array.length arr in
              2 * (1 lsl min 12 (max 2 (ceil_log2 (max 2 mlen) - 5))) * 32
            | Bidir.Last_n | Bidir.Last_stride -> 0
          in
          let expected =
            (32 * c) + tl.Bidir.tl_lookups
            + (32 * tl.Bidir.tl_misses)
            + (hit_payload * tl.Bidir.tl_hits)
            + table_bits
          in
          Alcotest.(check int)
            (tag ^ " compressed_bits = telemetry accounting")
            expected (Bidir.compressed_bits b))
        all_variants)
    fixtures

let test_raw_stream_telemetry () =
  let arr = Array.init 100 (fun i -> i) in
  let s = Stream.compress_with `Raw arr in
  let tl = Stream.telemetry s in
  Alcotest.(check int) "raw: no lookups" 0 tl.Stream.tl_lookups;
  Alcotest.(check int) "raw: no hits" 0 tl.Stream.tl_hits;
  Alcotest.(check int) "raw: no misses" 0 tl.Stream.tl_misses;
  let tally = Telemetry.make () in
  let c = Stream.Cursor.make ~tally ~label:0 s in
  ignore (Stream.Cursor.step_forward c);
  ignore (Stream.Cursor.step_forward c);
  ignore (Stream.Cursor.step_backward c);
  let g = Telemetry.snapshot ~tally () in
  Alcotest.(check int) "raw: fwd counted" 2 g.Telemetry.g_fwd;
  Alcotest.(check int) "raw: bwd counted" 1 g.Telemetry.g_bwd;
  Alcotest.(check int) "raw: switch counted" 1 g.Telemetry.g_switches;
  Alcotest.(check int) "raw: 32 bits a step" 96 g.Telemetry.g_bits;
  (* a raw seek indexes the array: one seek, no step; a read is a seek
     and the step revealing its value *)
  Stream.Cursor.seek c 50;
  ignore (Stream.Cursor.read_at c 10);
  let g = Telemetry.snapshot ~tally () in
  Alcotest.(check int) "raw: the read's value is a step" 3 g.Telemetry.g_fwd;
  Alcotest.(check int) "raw: two seeks" 2 g.Telemetry.g_seeks;
  Alcotest.(check int) "raw: no step inside them" 0 g.Telemetry.g_seek_steps;
  Alcotest.(check int) "raw: no dictionary" 0
    (g.Telemetry.g_hits + g.Telemetry.g_misses)

(* ------------------------------------------------------------------ *)
(* Sequitur telemetry                                                  *)
(* ------------------------------------------------------------------ *)

let test_sequitur_telemetry () =
  List.iter
    (fun (name, arr) ->
      let g = Sequitur.build arr in
      let tl = Sequitur.telemetry g in
      Alcotest.(check int) (name ^ " input counted") (Array.length arr)
        tl.Sequitur.tl_input;
      Alcotest.(check int)
        (name ^ " rules = 1 + created - inlined")
        (1 + tl.Sequitur.tl_rules_created - tl.Sequitur.tl_rules_inlined)
        tl.Sequitur.tl_rules;
      Alcotest.(check int) (name ^ " rules agrees") (Sequitur.num_rules g)
        tl.Sequitur.tl_rules;
      Alcotest.(check int) (name ^ " symbols agree")
        (Sequitur.grammar_symbols g) tl.Sequitur.tl_symbols;
      Alcotest.(check (array int)) (name ^ " expand unaffected") arr
        (Sequitur.expand g))
    fixtures;
  let g = Sequitur.build (Array.init 200 (fun i -> i mod 4)) in
  let tl = Sequitur.telemetry g in
  Alcotest.(check bool) "repetitive input produces digram hits" true
    (tl.Sequitur.tl_digram_hits > 0);
  Alcotest.(check bool) "fresh digrams were indexed" true
    (tl.Sequitur.tl_digram_misses > 0);
  Alcotest.(check bool) "hits imply rules were created" true
    (tl.Sequitur.tl_rules_created > 0)

(* ------------------------------------------------------------------ *)
(* Sizes.detail agreement, both tiers x two workloads                  *)
(* ------------------------------------------------------------------ *)

let wet_fixtures =
  lazy
    (List.concat_map
       (fun (name, scale) ->
         let w = Spec.find name in
         let w1 =
           Builder.run_streaming ~program:(Spec.compile w)
             ~input:(Spec.input w ~scale) ()
         in
         let w2 = Builder.pack w1 in
         [ (name ^ " tier1", w1); (name ^ " tier2", w2) ])
       [ ("197.parser", 8); ("164.gzip", 2) ])

let test_detail_agrees () =
  List.iter
    (fun (tag, wet) ->
      let d = Sizes.detail wet in
      let c = Sizes.current wet in
      let sum = List.fold_left (fun a k -> a + k.Sizes.sc_bits) 0 d.Sizes.d_classes in
      Alcotest.(check int) (tag ^ " total = sum of classes") sum
        d.Sizes.d_total_bits;
      (* the coarse view is the same bits, to the bit: 8 * bytes *)
      Alcotest.(check (float 0.)) (tag ^ " detail = current to the bit")
        (float_of_int d.Sizes.d_total_bits)
        (8. *. c.Sizes.total_bytes);
      let bits_of kind =
        List.fold_left
          (fun a k -> if k.Sizes.sc_kind = kind then a + k.Sizes.sc_bits else a)
          0 d.Sizes.d_classes
      in
      Alcotest.(check (float 0.)) (tag ^ " ts class = ts bytes")
        (float_of_int (bits_of "ts"))
        (8. *. c.Sizes.ts_bytes);
      Alcotest.(check (float 0.)) (tag ^ " value classes = vals bytes")
        (float_of_int (bits_of "uvals" + bits_of "pattern"))
        (8. *. c.Sizes.vals_bytes);
      Alcotest.(check (float 0.)) (tag ^ " label classes = edge bytes")
        (float_of_int (bits_of "label.src" + bits_of "label.dst"))
        (8. *. c.Sizes.edge_bytes);
      List.iter
        (fun k ->
          Alcotest.(check int)
            (Printf.sprintf "%s %s: hits <= lookups" tag k.Sizes.sc_kind)
            k.Sizes.sc_hits
            (min k.Sizes.sc_hits k.Sizes.sc_lookups);
          Alcotest.(check int)
            (Printf.sprintf "%s %s: raw bits = 32/value" tag k.Sizes.sc_kind)
            (32 * k.Sizes.sc_values) k.Sizes.sc_raw_bits;
          let method_total =
            List.fold_left (fun a (_, n) -> a + n) 0 k.Sizes.sc_methods
          in
          Alcotest.(check int)
            (Printf.sprintf "%s %s: method mix covers streams" tag
               k.Sizes.sc_kind)
            k.Sizes.sc_streams method_total)
        d.Sizes.d_classes)
    (Lazy.force wet_fixtures)

(* ------------------------------------------------------------------ *)
(* JSON parser + stats report round trip                               *)
(* ------------------------------------------------------------------ *)

let test_json_units () =
  let roundtrips v =
    match Json.parse (Json.to_string v) with
    | Ok v' -> Alcotest.(check string) "round trip" (Json.to_string v) (Json.to_string v')
    | Error e -> Alcotest.fail e
  in
  List.iter roundtrips
    [
      Json.Null;
      Json.Bool true;
      Json.Num 0.;
      Json.Num (-17.);
      Json.Num 3.25;
      Json.Num 1e-9;
      Json.Str "plain";
      Json.Str "esc \"quotes\" \\ \n \t and \x01 control";
      Json.Arr [];
      Json.Obj [];
      Json.Arr [ Json.Num 1.; Json.Str "two"; Json.Null ];
      Json.Obj
        [
          ("a", Json.Arr [ Json.Obj [ ("nested", Json.Bool false) ] ]);
          ("b", Json.Num 42.);
        ];
    ];
  (match Json.parse "  { \"k\" : [ 1 , 2.5 , true ] }  " with
   | Ok (Json.Obj [ ("k", Json.Arr [ Json.Num a; Json.Num b; Json.Bool true ]) ]) ->
     Alcotest.(check (float 0.)) "int" 1. a;
     Alcotest.(check (float 0.)) "float" 2.5 b
   | Ok j -> Alcotest.failf "unexpected parse: %s" (Json.to_string j)
   | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "parsed garbage: %s" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_report_roundtrip () =
  List.iter
    (fun (tag, wet) ->
      let r = Report.of_wet ~label:tag wet in
      let j = Report.to_json r in
      match Json.parse (Json.to_string j) with
      | Error e -> Alcotest.fail e
      | Ok j' ->
        Alcotest.(check string) (tag ^ " identical after reparse")
          (Json.to_string j) (Json.to_string j');
        let total =
          Option.bind (Json.member "total_bits" j') Json.to_int
          |> Option.get
        in
        let stream_sum =
          Option.bind (Json.member "streams" j') Json.to_list
          |> Option.get
          |> List.fold_left
               (fun a s ->
                 a + Option.get (Option.bind (Json.member "bits" s) Json.to_int))
               0
        in
        Alcotest.(check int) (tag ^ " parsed stream bits sum to total")
          total stream_sum;
        let d = Sizes.detail wet in
        Alcotest.(check int) (tag ^ " parsed total = Sizes.detail")
          d.Sizes.d_total_bits total)
    (Lazy.force wet_fixtures)

(* ------------------------------------------------------------------ *)
(* bench-check                                                         *)
(* ------------------------------------------------------------------ *)

let sample ?(workload = "w") ?(scale = 5) () =
  {
    Bench.workload;
    scale;
    stmts = 100_000;
    bytes_per_label_t1 = 4.;
    bytes_per_label_t2 = 1.;
    ratio_t1 = 4.;
    ratio_t2 = 50.;
    wet_words = 100_000;
    build_peak_words = 400_000;
    shards = 100;
    query_decode_steps = 10_000;
    query_bits_touched = 200_000;
    query_switches = 1_000;
  }

let run_of samples = { Bench.samples }

let check_ok ~prev ~cur =
  match Bench.check ~prev ~cur with
  | Ok verdicts -> verdicts
  | Error e -> Alcotest.fail e

let verdict metric ~prev ~cur =
  check_ok ~prev:(run_of [ prev ]) ~cur:(run_of [ cur ])
  |> List.find (fun v -> v.Bench.v_metric = metric)

let test_threshold_edges () =
  Alcotest.(check (float 0.)) "one threshold" 0.02 Bench.threshold;
  let base = sample () in
  (* lower is better: 100,000 -> 102,000 words is exactly 2% worse *)
  let v =
    verdict "wet_words" ~prev:base ~cur:{ base with Bench.wet_words = 102_000 }
  in
  Alcotest.(check bool) "wet_words exactly 2% worse passes" false
    v.Bench.v_regressed;
  Alcotest.(check (float 1e-12)) "worse_frac = 0.02" 0.02 v.Bench.v_worse_frac;
  let v =
    verdict "wet_words" ~prev:base ~cur:{ base with Bench.wet_words = 102_001 }
  in
  Alcotest.(check bool) "wet_words just over 2% fails" true v.Bench.v_regressed;
  (* higher is better: ratio 50 -> 49 is exactly 2% worse *)
  let v =
    verdict "ratio_t2" ~prev:base ~cur:{ base with Bench.ratio_t2 = 49. }
  in
  Alcotest.(check bool) "ratio_t2 exactly 2% worse passes" false
    v.Bench.v_regressed;
  let v =
    verdict "ratio_t2" ~prev:base ~cur:{ base with Bench.ratio_t2 = 48.99 }
  in
  Alcotest.(check bool) "ratio_t2 just over 2% fails" true v.Bench.v_regressed;
  (* improvements never regress *)
  let better =
    {
      base with
      Bench.wet_words = 50_000;
      ratio_t2 = 100.;
      bytes_per_label_t2 = 0.5;
      query_decode_steps = 1;
    }
  in
  Alcotest.(check bool) "improvement passes" false
    (Bench.regressed
       (check_ok ~prev:(run_of [ base ]) ~cur:(run_of [ better ])));
  (* a zero baseline never anchors a regression, in either direction *)
  let v =
    verdict "wet_words"
      ~prev:{ base with Bench.wet_words = 0 }
      ~cur:{ base with Bench.wet_words = 999_999 }
  in
  Alcotest.(check bool) "zero baseline guard (lower better)" false
    v.Bench.v_regressed;
  let v =
    verdict "ratio_t2"
      ~prev:{ base with Bench.ratio_t2 = 0. }
      ~cur:{ base with Bench.ratio_t2 = 0.001 }
  in
  Alcotest.(check bool) "zero baseline guard (higher better)" false
    v.Bench.v_regressed;
  (* workloads only in cur are skipped *)
  let vs =
    check_ok
      ~prev:(run_of [ sample ~workload:"old" () ])
      ~cur:(run_of [ sample ~workload:"new" () ])
  in
  Alcotest.(check int) "disjoint workloads: no verdicts" 0 (List.length vs)

(* Every gated column is deterministic, so each gates at the one 2%
   threshold: 3% worse in that column alone regresses it and nothing
   else. [scale] and [stmts] name the run and are not gated. *)
let test_deterministic_gates () =
  let base = sample () in
  let worse =
    [
      ("bytes_per_label_t1", { base with Bench.bytes_per_label_t1 = 4.12 });
      ("bytes_per_label_t2", { base with Bench.bytes_per_label_t2 = 1.03 });
      ("ratio_t1", { base with Bench.ratio_t1 = 3.88 });
      ("ratio_t2", { base with Bench.ratio_t2 = 48.5 });
      ("wet_words", { base with Bench.wet_words = 103_000 });
      ("build_peak_words", { base with Bench.build_peak_words = 412_000 });
      ("shards", { base with Bench.shards = 103 });
      ("query_decode_steps", { base with Bench.query_decode_steps = 10_300 });
      ("query_bits_touched", { base with Bench.query_bits_touched = 206_000 });
      ("query_switches", { base with Bench.query_switches = 1_030 });
    ]
  in
  let regressed_metrics cur =
    check_ok ~prev:(run_of [ base ]) ~cur:(run_of [ cur ])
    |> List.filter_map (fun v ->
           if v.Bench.v_regressed then Some v.Bench.v_metric else None)
  in
  List.iter
    (fun (metric, cur) ->
      Alcotest.(check (list string))
        (metric ^ " 3% worse regresses it alone")
        [ metric ] (regressed_metrics cur))
    worse;
  Alcotest.(check (list string)) "the gate covers exactly these columns"
    (List.map fst worse)
    (List.map
       (fun v -> v.Bench.v_metric)
       (check_ok ~prev:(run_of [ base ]) ~cur:(run_of [ base ])));
  Alcotest.(check (list string)) "stmts is not gated" []
    (regressed_metrics { base with Bench.stmts = 1 })

let test_bench_roundtrip () =
  let r =
    run_of
      [
        sample ~workload:"a" ();
        {
          (sample ~workload:"b" ~scale:875 ()) with
          Bench.bytes_per_label_t2 = 0.342036018942;
          ratio_t1 = 11.7536118037;
          query_decode_steps = 123_456;
        };
      ]
  in
  let path = Filename.temp_file "wet_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Bench.save r path;
      match Bench.load path with
      | Error e -> Alcotest.fail e
      | Ok r' ->
        Alcotest.(check bool) "loaded run = saved run" true (r = r');
        (* a round-tripped run never regresses against itself *)
        Alcotest.(check bool) "self-compare clean" false
          (Bench.regressed (check_ok ~prev:r ~cur:r')))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A file in the retired format, whose wall-clock columns are gone, is
   refused with a hint to regenerate it; so is a sample missing a
   field, which no default stands in for. *)
let test_bench_v1_refused () =
  let refusal j =
    match Bench.of_json j with
    | Ok _ -> Alcotest.fail ("loaded: " ^ Json.to_string j)
    | Error m -> m
  in
  let m =
    match
      Json.parse
        {|{"schema":"wet-bench/1","label":"observatory","quick":true,"repeat":3,"warmup":1,"samples":[]}|}
    with
    | Ok j -> refusal j
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) ("regeneration hint: " ^ m) true
    (contains m "regenerate" && contains m "bench/main.exe observatory");
  let drop k = function
    | Json.Obj fields -> Json.Obj (List.remove_assoc k fields)
    | j -> j
  in
  let m =
    match Bench.to_json (run_of [ sample () ]) with
    | Json.Obj [ schema; ("samples", Json.Arr [ s ]) ] ->
      refusal (Json.Obj [ schema; ("samples", Json.Arr [ drop "shards" s ]) ])
    | j -> Alcotest.fail ("unexpected layout: " ^ Json.to_string j)
  in
  Alcotest.(check bool) ("missing field named: " ^ m) true
    (contains m "shards")

(* Figures of one workload at two scales do not compare, so the gate
   refuses them instead of reporting a regression or a pass. *)
let test_bench_scale_mismatch () =
  match
    Bench.check
      ~prev:(run_of [ sample ~workload:"a" (); sample ~workload:"181.mcf" () ])
      ~cur:
        (run_of
           [ sample ~workload:"a" (); sample ~workload:"181.mcf" ~scale:6 () ])
  with
  | Ok _ -> Alcotest.fail "a scale mismatch was compared"
  | Error m ->
    Alcotest.(check bool) ("names the workload and scales: " ^ m) true
      (contains m "181.mcf" && contains m "scale 5" && contains m "scale 6")

let test_percentile () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.(check (float 0.)) "p50 of 1..5" 3. (Bench.percentile 0.5 xs);
  Alcotest.(check (float 0.)) "p95 of 1..5" 5. (Bench.percentile 0.95 xs);
  Alcotest.(check (float 0.)) "p0 clamps" 1. (Bench.percentile 0. xs);
  Alcotest.(check (float 0.)) "p100" 5. (Bench.percentile 1. xs);
  Alcotest.(check (float 0.)) "singleton" 7. (Bench.percentile 0.5 [ 7. ])

(* ------------------------------------------------------------------ *)
(* Metric docs cover the live registry                                 *)
(* ------------------------------------------------------------------ *)

let test_metric_docs_cover_registry () =
  Wet_obs.Sink.enable ();
  Wet_obs.Metrics.reset ();
  (* run a pipeline that instantiates the dynamic families too *)
  let w = Spec.find "197.parser" in
  let w1 =
    Builder.run_streaming ~program:(Spec.compile w)
      ~input:(Spec.input w ~scale:6) ()
  in
  let w2 = Builder.pack w1 in
  let s = W.open_session w2 in
  let scope =
    Wet_qprof.Qprof.make_scope ~tally:(W.Session.tally s)
      ~recorder:(W.Session.recorder s) ()
  in
  ignore
    (Wet_qprof.Qprof.profiled ~scope "trace/cf" (fun () ->
         Wet_core.Query.Session.control_flow s Wet_core.Query.Forward
           ~f:(fun _ _ -> ())));
  let snapshot = Metrics.snapshot () in
  let spans = List.map (fun e -> e.Wet_obs.Sink.ev_name) (Wet_obs.Sink.events ()) in
  let names = List.map fst snapshot in
  let undocumented =
    List.filter (fun name -> Metric_docs.lookup name = None) names
  in
  Wet_obs.Sink.disable ();
  Alcotest.(check (list string)) "every registered instrument is documented"
    [] undocumented;
  List.iter
    (fun span ->
      Alcotest.(check bool) (span ^ " span present") true (List.mem span spans))
    [ "interp.run"; "build.stream"; "build.tier2" ];
  (* the query is counted and timed once, by its qprof context: one
     observation in its shape's latency histogram, and none in any other
     histogram but the build's shard sizes *)
  Alcotest.(check (list (pair string int))) "one query, one latency"
    [ ("qprof.latency.trace/cf", 1) ]
    (List.filter_map
       (fun (name, r) ->
         match r with
         | Metrics.Histogram h
           when h.Metrics.h_count > 0 && name <> "build.shard_events" ->
           Some (name, h.Metrics.h_count)
         | _ -> None)
       snapshot);
  (* the ledger has one set of counters: qprof's, with no explain.*
     twins and no Sequitur counts, which no query makes *)
  Alcotest.(check (list string)) "no explain.* or qprof.seq_* instrument" []
    (List.filter
       (fun name ->
         List.hd (String.split_on_char '.' name) = "explain"
         || String.starts_with ~prefix:"qprof.seq_" name)
       names);
  (* the pattern resolver really is resolving patterns *)
  Alcotest.(check bool) "qprof.latency pattern resolves" true
    (Metric_docs.lookup "qprof.latency.slice/backward" <> None);
  Alcotest.(check bool) "watch pattern resolves" true
    (Metric_docs.lookup "watch.myprobe.matches" <> None);
  Alcotest.(check bool) "unknown name is unknown" true
    (Metric_docs.lookup "no.such.metric" = None)

(* ------------------------------------------------------------------ *)

(* `wet obs diff` semantics. The load-bearing edge case: two exports
   with no instrument in common must read as zero overlap, never as
   "nothing changed". *)

let inst name value = (name, Metrics.Counter value)

let test_obs_diff_zero_overlap () =
  let d = Obs_diff.diff [ inst "a.x" 3; inst "a.y" 1 ] [ inst "b.z" 5 ] in
  Alcotest.(check int) "no overlap" 0 d.Obs_diff.d_overlap;
  Alcotest.(check bool) "nothing compared, so nothing changed" true
    (d.Obs_diff.d_changed = []);
  Alcotest.(check (list string)) "only in A" [ "a.x"; "a.y" ] d.Obs_diff.d_only_a;
  Alcotest.(check (list string)) "only in B" [ "b.z" ] d.Obs_diff.d_only_b;
  (* and the empty-input corner *)
  let e = Obs_diff.diff [] [] in
  Alcotest.(check int) "empty inputs overlap nothing" 0 e.Obs_diff.d_overlap

let test_obs_diff_changes () =
  let a = [ inst "p" 10; inst "q" 100; inst "r" 7; inst "s" 0 ] in
  let b = [ inst "p" 11; inst "q" 300; inst "r" 7; inst "s" 4 ] in
  let d = Obs_diff.diff a b in
  Alcotest.(check int) "all four overlap" 4 d.Obs_diff.d_overlap;
  Alcotest.(check (list string)) "unchanged rows dropped, |rel| order"
    [ "s"; "q"; "p" ]
    (List.map (fun (r : Obs_diff.row) -> r.Obs_diff.d_name) d.Obs_diff.d_changed);
  (match d.Obs_diff.d_changed with
   | s :: q :: p :: _ ->
     (* zero baseline: rel = (b - a) / max 1 |a| stays finite *)
     Alcotest.(check (float 1e-9)) "rel with zero baseline" 4.0 s.Obs_diff.d_rel;
     Alcotest.(check (float 1e-9)) "rel doubles count" 2.0 q.Obs_diff.d_rel;
     Alcotest.(check (float 1e-9)) "small rel last" 0.1 p.Obs_diff.d_rel
   | _ -> Alcotest.fail "expected three changed rows");
  Alcotest.(check bool) "no exclusives" true
    (d.Obs_diff.d_only_a = [] && d.Obs_diff.d_only_b = [])

(* The one reader of a metrics export gives back, exactly, the readings
   the process registry held when it was written: every kind, an empty
   histogram, a negative gauge and buckets up to 2^40. A v1 export (no
   schema line) reads with no schema, and a malformed line is an
   error. *)
let test_obs_read_round_trip () =
  Metrics.reset ();
  Wet_obs.Sink.enable ();
  Fun.protect ~finally:Wet_obs.Sink.disable (fun () ->
      Metrics.add (Metrics.counter "a.count") 7;
      Metrics.set (Metrics.gauge "a.gauge") (-3);
      let h = Metrics.histogram "a.hist" in
      List.iter (Metrics.observe h) [ 0; 1; 5; 1000; 1 lsl 40 ];
      ignore (Metrics.histogram "a.empty"));
  let readings = Metrics.snapshot () in
  let lines = String.split_on_char '\n' (Wet_obs.Export.metrics_jsonl ()) in
  (match Obs_read.parse lines with
   | Error m -> Alcotest.fail m
   | Ok (schema, back) ->
     Alcotest.(check (option string)) "schema" (Some Wet_obs.Export.schema)
       schema;
     Alcotest.(check bool) "every reading comes back as written" true
       (back = readings));
  (match Obs_read.parse (List.tl lines) with
   | Ok (None, back) ->
     Alcotest.(check int) "a v1 export keeps its instruments"
       (List.length readings) (List.length back)
   | _ -> Alcotest.fail "a v1 export reads with no schema");
  match Obs_read.parse [ {|{"type":"counter","name":"x"}|} ] with
  | Ok _ -> Alcotest.fail "a counter without a value was read"
  | Error _ -> ()

let () =
  Alcotest.run "insight"
    [
      ( "telemetry",
        [
          Alcotest.test_case "bidir dictionary invariants" `Quick
            test_bidir_dictionary;
          Alcotest.test_case "bidir step counters" `Quick test_bidir_steps;
          Alcotest.test_case "compressed_bits accounting" `Quick
            test_bits_accounting;
          Alcotest.test_case "raw stream telemetry" `Quick
            test_raw_stream_telemetry;
          Alcotest.test_case "sequitur telemetry" `Quick
            test_sequitur_telemetry;
        ] );
      ( "sizes",
        [
          Alcotest.test_case "detail agrees with current (both tiers)" `Quick
            test_detail_agrees;
        ] );
      ( "json",
        [
          Alcotest.test_case "parser units" `Quick test_json_units;
          Alcotest.test_case "stats report round trip" `Quick
            test_report_roundtrip;
        ] );
      ( "bench-check",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "threshold edges" `Quick test_threshold_edges;
          Alcotest.test_case "deterministic columns gate tightly" `Quick
            test_deterministic_gates;
          Alcotest.test_case "save/load round trip" `Quick
            test_bench_roundtrip;
          Alcotest.test_case "wet-bench/1 is refused" `Quick
            test_bench_v1_refused;
          Alcotest.test_case "scale mismatch is refused" `Quick
            test_bench_scale_mismatch;
        ] );
      ( "metric-docs",
        [
          Alcotest.test_case "registry coverage" `Quick
            test_metric_docs_cover_registry;
        ] );
      ( "obs-diff",
        [
          Alcotest.test_case "zero overlap is not 'no change'" `Quick
            test_obs_diff_zero_overlap;
          Alcotest.test_case "relative deltas and ordering" `Quick
            test_obs_diff_changes;
          Alcotest.test_case "the export reads back as written" `Quick
            test_obs_read_round_trip;
        ] );
    ]
