module W = Wet_core.Wet
module Builder = Wet_core.Builder
module Iso = Wet_analyses.Isomorphism
module HS = Wet_analyses.Hot_streams
module Dot = Wet_analyses.Dot_export
module Interp = Wet_interp.Interp

let build src input =
  let prog = Wet_minic.Frontend.compile_exn src in
  (Interp.run prog ~input, Builder.run_streaming ~program:prog ~input ())

(* Two statements computing the same function of the same input are
   value-isomorphic; a third computing something else is not. *)
let test_isomorphism_detects () =
  let _, wet =
    build
      {|fn main() {
          var i = 0;
          while (i < 50) {
            var a = i * 2 + 1;
            var b = i * 2 + 1;   // isomorphic with a
            var c = i * 3;       // not isomorphic
            print(a + b + c);
            i = i + 1;
          }
        }|}
      [||]
  in
  let iso, total, redundant = Iso.summary wet in
  Alcotest.(check bool) "found isomorphic copies" true (iso >= 2);
  Alcotest.(check bool) "not everything is isomorphic" true (iso < total);
  Alcotest.(check bool) "redundancy counted" true (redundant >= 49);
  (* members of any class really do produce identical sequences *)
  let sess = W.open_session wet in
  List.iter
    (fun (k : Iso.klass) ->
      match k.Iso.members with
      | c0 :: rest ->
        let seq c =
          List.init k.Iso.executions (fun i ->
              W.Session.value_of_copy sess c i)
        in
        let s0 = seq c0 in
        List.iter
          (fun c -> Alcotest.(check (list int)) "identical sequences" s0 (seq c))
          rest
      | [] -> Alcotest.fail "empty class")
    (Iso.classes wet)

let test_hot_streams () =
  (* a trace alternating between a recurring walk and noise *)
  let rng = Wet_util.Prng.create 31 in
  let walk = [| 100; 104; 108; 112; 116 |] in
  let chunks =
    List.init 60 (fun i ->
        if i mod 2 = 0 then walk
        else Array.init 3 (fun _ -> Wet_util.Prng.int rng 5000))
  in
  let trace = Array.concat chunks in
  let streams = HS.mine trace in
  Alcotest.(check bool) "found streams" true (streams <> []);
  let top = List.hd streams in
  (* the recurring walk is (part of) the hottest stream *)
  Alcotest.(check bool)
    (Printf.sprintf "hot stream mentions the walk (heat %d)" top.HS.heat)
    true
    (Array.exists (fun a -> a = 100) top.HS.addresses
     || Array.exists (fun a -> a = 104) top.HS.addresses);
  let cov = HS.coverage streams trace in
  Alcotest.(check bool) (Printf.sprintf "coverage %.2f" cov) true (cov > 0.3)

let test_hot_streams_on_workload () =
  (* gzip re-reads its sliding window: its address trace is stream-rich *)
  let res = Wet_workloads.Spec.run ~scale:1 (Wet_workloads.Spec.find "gzip") in
  let addrs = HS.address_trace res.Interp.trace in
  Alcotest.(check int) "address trace length"
    (Array.length res.Interp.trace.Wet_interp.Trace.mem_ops)
    (Array.length addrs);
  let streams = HS.mine ~min_length:8 (Array.sub addrs 0 (min 20000 (Array.length addrs))) in
  Alcotest.(check bool) "workload has hot streams" true (streams <> [])

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_dot_nodes () =
  let _, wet = build "fn main() { var i = 0; while (i < 3) { i = i + 1; } print(i); }" [||] in
  let dot = Dot.nodes wet in
  Alcotest.(check bool) "digraph" true (contains dot "digraph wet {");
  Alcotest.(check bool) "has nodes" true (contains dot "execs");
  Alcotest.(check bool) "has edges" true (contains dot "->");
  Alcotest.(check bool) "closes" true (contains dot "}")

let test_dot_slice () =
  let _, wet = build "fn main() { var a = 2; var b = a * 21; print(b); }" [||] in
  let out =
    List.hd
      (Wet_core.Query.copies_matching wet (function
        | Wet_ir.Instr.Output _ -> true
        | _ -> false))
  in
  let dot = Dot.slice (W.open_session wet) out 0 in
  Alcotest.(check bool) "criterion highlighted" true (contains dot "lightgrey");
  Alcotest.(check bool) "mul in slice" true (contains dot "mul");
  Alcotest.(check bool) "dashed cd edges ok" true (contains dot "digraph wet_slice")


(* State reconstruction oracle: replay the raw trace's stores up to a
   timestamp cutoff and compare memory images. *)
let test_state_reconstruction () =
  let src =
    {|
global cells[6];
global gen;
fn main() {
  var i = 0;
  while (i < 30) {
    cells[i % 6] = i * i + gen;
    if (i % 10 == 4) { gen = gen + 100; }
    i = i + 1;
  }
  print(cells[3]);
}
|}
  in
  let res, wet1 = build src [||] in
  let wet = Wet_core.Builder.pack wet1 in
  let tr = res.Interp.trace in
  let module T = Wet_interp.Trace in
  let module PA = Wet_cfg.Program_analysis in
  let prog = T.program tr in
  let total = Array.length tr.T.paths in
  let oracle ts =
    let mem = Hashtbl.create 16 in
    let pos = ref 0 and memc = ref 0 in
    Array.iteri
      (fun k pkey ->
        let f, pid = T.decode_path pkey in
        let bl = (PA.fn tr.T.analysis f).PA.bl in
        List.iter
          (fun b ->
            Array.iter
              (fun ins ->
                if Wet_ir.Instr.is_memory ins then begin
                  let op = tr.T.mem_ops.(!memc) in
                  incr memc;
                  (match ins with
                   | Wet_ir.Instr.Store _ when k + 1 <= ts ->
                     Hashtbl.replace mem (op lsr 1) tr.T.values.(!pos)
                   | _ -> ())
                end;
                incr pos)
              prog.Wet_ir.Program.funcs.(f).Wet_ir.Func.blocks.(b)
                .Wet_ir.Func.instrs)
          (Wet_cfg.Ball_larus.blocks_of_path bl pid))
      tr.T.paths;
    mem
  in
  let sess = W.open_session wet in
  List.iter
    (fun ts ->
      let state = Wet_analyses.State_reconstruct.at_session sess ~ts in
      let want = oracle ts in
      Hashtbl.iter
        (fun addr v ->
          Alcotest.(check int)
            (Printf.sprintf "ts=%d addr=%d" ts addr)
            v
            (Wet_analyses.State_reconstruct.read state addr))
        want;
      Alcotest.(check int) "written count" (Hashtbl.length want)
        (List.length (Wet_analyses.State_reconstruct.written state));
      (* unwritten cells read as zero *)
      Alcotest.(check int) "unwritten" 0
        (Wet_analyses.State_reconstruct.read state 99999))
    [ 1; total / 3; (2 * total) / 3; total ];
  (* named-global access *)
  let s = Wet_analyses.State_reconstruct.at_session sess ~ts:total in
  Alcotest.(check int) "gen global" 300
    (Wet_analyses.State_reconstruct.global wet s "gen")


(* An [at] early in a run reads, per store copy, the timestamps of its
   instances up to [ts] and at most one past it: a node's timestamps
   strictly increase, so the first one past [ts] ends the copy. Every
   timestamp read is one seek on its node's ledger row, on both
   tiers. *)
let test_at_reads_up_to_ts () =
  let module Ex = Wet_watch.Explain in
  let module Qprof = Wet_qprof.Qprof in
  let module Wl = Wet_workloads.Spec in
  List.iter
    (fun name ->
      let spec = Wl.find name in
      let w1 =
        Builder.run_streaming ~program:(Wl.compile spec)
          ~input:(Wl.input spec ~scale:(max 1 (spec.Wl.timing_scale / 16)))
          ()
      in
      List.iter
        (fun (tier, wet) ->
          let ts = wet.W.stats.W.path_execs / 16 in
          let allowed =
            List.fold_left
              (fun acc c ->
                let n = W.node_of_copy wet c in
                let upto =
                  Array.fold_left
                    (fun k v -> if v <= ts then k + 1 else k)
                    0
                    (Wet_bistream.Stream.contents wet.W.node_ts.(n.W.n_id))
                in
                acc + min n.W.n_nexec (upto + 1))
              0
              (Wet_core.Query.copies_matching wet (function
                | Wet_ir.Instr.Store _ -> true
                | _ -> false))
          in
          let s = W.open_session wet in
          let scope =
            Qprof.make_scope ~tally:(W.Session.tally s)
              ~recorder:(W.Session.recorder s) ()
          in
          let _, p =
            Qprof.profiled ~scope "at" (fun () ->
                Wet_analyses.State_reconstruct.at_session s ~ts)
          in
          let reads =
            List.fold_left
              (fun acc (st : Ex.stream_stats) ->
                match st.Ex.e_stream with
                | Ex.Ts _ -> acc + st.Ex.e_seeks
                | _ -> acc)
              0 p.Qprof.p_streams
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: %d timestamp reads <= %d" name tier reads
               allowed)
            true (reads <= allowed))
        [ ("tier-1", w1); ("tier-2", Builder.pack w1) ])
    [ "126.gcc"; "197.parser" ]

let test_value_locality () =
  (* a program whose loads see mostly one value *)
  let src =
    {|
global a[16];
fn main() {
  var i = 0;
  while (i < 16) { a[i] = 7; i = i + 1; }
  a[5] = 99;
  var s = 0;
  var r = 0;
  while (r < 4) {
    var j = 0;
    while (j < 16) { s = s + a[j]; j = j + 1; }
    r = r + 1;
  }
  print(s);
}
|}
  in
  let _, wet = build src [||] in
  let freq = Wet_analyses.Value_locality.frequent ~top:2 wet in
  (match freq with
   | (v, c) :: _ ->
     Alcotest.(check int) "7 dominates" 7 v;
     Alcotest.(check bool) "count sensible" true (c >= 60)
   | [] -> Alcotest.fail "no frequent values");
  let cov1 = Wet_analyses.Value_locality.coverage wet ~top:1 in
  let cov2 = Wet_analyses.Value_locality.coverage wet ~top:2 in
  Alcotest.(check bool) (Printf.sprintf "top-1 covers most (%.2f)" cov1) true
    (cov1 > 0.9);
  Alcotest.(check bool) "coverage monotone" true (cov2 >= cov1);
  Alcotest.(check bool) "top-2 covers all" true (cov2 > 0.999)

let () =
  Alcotest.run "analyses"
    [
      ( "isomorphism",
        [ Alcotest.test_case "detects identical sequences" `Quick test_isomorphism_detects ] );
      ( "hot-streams",
        [
          Alcotest.test_case "synthetic" `Quick test_hot_streams;
          Alcotest.test_case "workload" `Quick test_hot_streams_on_workload;
        ] );
      ( "value-locality",
        [ Alcotest.test_case "frequent values" `Quick test_value_locality ] );
      ( "state",
        [
          Alcotest.test_case "reconstruction oracle" `Quick
            test_state_reconstruction;
          Alcotest.test_case "at reads timestamps up to ts" `Quick
            test_at_reads_up_to_ts;
        ] );
      ( "dot",
        [
          Alcotest.test_case "nodes" `Quick test_dot_nodes;
          Alcotest.test_case "slice" `Quick test_dot_slice;
        ] );
    ]
