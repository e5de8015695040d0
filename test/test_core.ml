(* Ground-truth verification of the WET core: everything a WET stores
   must reconstruct the raw trace exactly, on tier-1 and on tier-2. *)

module W = Wet_core.Wet
module Builder = Wet_core.Builder
module Query = Wet_core.Query
module Slice = Wet_core.Slice
module S = W.Session
module Sizes = Wet_core.Sizes
module T = Wet_interp.Trace
module Interp = Wet_interp.Interp
module Instr = Wet_ir.Instr

(* ------------------------------------------------------------------ *)
(* Replay: recompute the dynamic position -> (copy, instance) map.    *)
(* ------------------------------------------------------------------ *)

type replay = {
  wet : W.t;
  trace : T.t;
  pos_copy : int array;
  pos_inst : int array;
}

let replay wet (trace : T.t) =
  let n = max 1 trace.T.nstmts in
  let pos_copy = Array.make n (-1) and pos_inst = Array.make n (-1) in
  let node_of = Hashtbl.create 64 in
  Array.iter
    (fun (nd : W.node) -> Hashtbl.replace node_of (nd.W.n_func, nd.W.n_path) nd)
    wet.W.nodes;
  let nexec = Hashtbl.create 64 in
  let pos = ref 0 in
  Array.iter
    (fun pkey ->
      let f, pid = T.decode_path pkey in
      let node = Hashtbl.find node_of (f, pid) in
      let inst = Option.value (Hashtbl.find_opt nexec node.W.n_id) ~default:0 in
      Hashtbl.replace nexec node.W.n_id (inst + 1);
      Array.iteri
        (fun o _ ->
          pos_copy.(!pos) <- node.W.n_copy_base + o;
          pos_inst.(!pos) <- inst;
          incr pos)
        node.W.n_stmts)
    trace.T.paths;
  { wet; trace; pos_copy; pos_inst }

(* Iterate all statement executions as (copy, instance, position). *)
let iter_instances r f =
  for pos = 0 to r.trace.T.nstmts - 1 do
    f r.pos_copy.(pos) r.pos_inst.(pos) pos
  done

(* A backward slicer over the raw trace alone, the oracle [Slice] is
   checked against: [trace_backward r p] is the closure of the execution
   at position [p] over two links, each execution's dependence slots
   ([Instr.dyn_use_count] of them, laid out in position order) and its
   block execution's [cd_producer]. Block executions are numbered from
   each path's [n_block_start]; reached positions are named
   (copy, instance) through [replay], sorted. *)
let trace_backward r =
  let tr = r.trace and wet = r.wet in
  let n = tr.T.nstmts in
  let slot0 = Array.make (n + 1) 0 in
  for p = 0 to n - 1 do
    slot0.(p + 1) <-
      slot0.(p) + Instr.dyn_use_count (W.instr_of_copy wet r.pos_copy.(p))
  done;
  let node_of = Hashtbl.create 64 in
  Array.iter
    (fun (nd : W.node) -> Hashtbl.replace node_of (nd.W.n_func, nd.W.n_path) nd)
    wet.W.nodes;
  let block = Array.make (max 1 n) 0 in
  let pos = ref 0 and blk = ref 0 in
  Array.iter
    (fun pkey ->
      let node = Hashtbl.find node_of (T.decode_path pkey) in
      let starts = node.W.n_block_start in
      let bp = ref 0 in
      Array.iteri
        (fun o _ ->
          while !bp + 1 < Array.length starts && starts.(!bp + 1) <= o do
            incr bp
          done;
          block.(!pos) <- !blk + !bp;
          incr pos)
        node.W.n_stmts;
      blk := !blk + Array.length node.W.n_blocks)
    tr.T.paths;
  fun p0 ->
    let seen = Array.make (max 1 n) false in
    let stack = ref [] in
    let push q =
      if q >= 0 && not seen.(q) then begin
        seen.(q) <- true;
        stack := q :: !stack
      end
    in
    push p0;
    while !stack <> [] do
      let p = List.hd !stack in
      stack := List.tl !stack;
      for s = slot0.(p) to slot0.(p + 1) - 1 do
        push tr.T.deps.(s)
      done;
      push tr.T.cd_producer.(block.(p))
    done;
    let out = ref [] in
    Array.iteri
      (fun q reached ->
        if reached then out := (r.pos_copy.(q), r.pos_inst.(q)) :: !out)
      seen;
    List.sort compare !out

(* The instances a WET backward slice visits, sorted (a repeat would
   show as a duplicate). *)
let wet_backward sess c i =
  let got = ref [] in
  ignore (Slice.Session.backward sess c i ~f:(fun c i -> got := (c, i) :: !got));
  List.sort compare !got

let programs =
  [
    ( "fib-array",
      {|
global arr[10];
fn fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fn main() {
  var i = 0;
  while (i < 10) { arr[i] = fib(i); i = i + 1; }
  var j = 0;
  while (j < 10) { print(arr[j]); j = j + 1; }
}
|},
      [||] );
    ( "input-driven",
      {|
global buf[16];
fn weigh(x, w) { return x * w + 1; }
fn main() {
  var i = 0;
  while (i < 16) {
    buf[i] = weigh(input(), i % 4);
    i = i + 1;
  }
  var best = -1000000;
  for (var j = 0; j < 16; j = j + 1) {
    if (buf[j] > best) { best = buf[j]; }
  }
  print(best);
}
|},
      Array.init 16 (fun i -> (i * 13) mod 29) );
    ( "memory-churn",
      {|
global tab[32];
fn main() {
  var i = 0;
  while (i < 200) {
    var slot = (i * 7) % 32;
    tab[slot] = tab[slot] + i;
    if (tab[slot] % 3 == 0) { tab[(slot + 1) % 32] = tab[slot] / 2; }
    i = i + 1;
  }
  var s = 0;
  for (var j = 0; j < 32; j = j + 1) { s = s + tab[j]; }
  print(s);
}
|},
      [||] );
  ]

let built =
  lazy
    (List.map
       (fun (name, src, input) ->
         let prog = Wet_minic.Frontend.compile_exn src in
         let tr = (Interp.run prog ~input).Interp.trace in
         let w1 = Builder.run_streaming ~program:prog ~input () in
         let w2 = Builder.pack w1 in
         (name, tr, w1, w2))
       programs)

let each_tier f =
  List.iter
    (fun (name, tr, w1, w2) ->
      f (name ^ "/tier1") tr w1;
      f (name ^ "/tier2") tr w2)
    (Lazy.force built)

(* ------------------------------------------------------------------ *)
(* Exhaustive reconstruction checks                                   *)
(* ------------------------------------------------------------------ *)

let test_values () =
  each_tier (fun name tr wet ->
      let sess = W.open_session wet in
      let r = replay wet tr in
      iter_instances r (fun c i pos ->
          if wet.W.copy_uvals.(c) <> None then
            if S.value_of_copy sess c i <> tr.T.values.(pos) then
              Alcotest.failf "%s: value mismatch at copy %d inst %d" name c i))

let test_deps () =
  each_tier (fun name tr wet ->
      let sess = W.open_session wet in
      let r = replay wet tr in
      let depc = ref 0 in
      iter_instances r (fun c i _ ->
          let k = Instr.dyn_use_count (W.instr_of_copy wet c) in
          for s = 0 to k - 1 do
            let producer = tr.T.deps.(!depc) in
            incr depc;
            let want =
              if producer < 0 then None
              else Some (r.pos_copy.(producer), r.pos_inst.(producer))
            in
            if S.resolve_dep sess c i s <> want then
              Alcotest.failf "%s: dep mismatch at copy %d inst %d slot %d" name
                c i s
          done))

let test_control_deps () =
  each_tier (fun name tr wet ->
      let sess = W.open_session wet in
      let r = replay wet tr in
      let node_of = Hashtbl.create 64 in
      Array.iter
        (fun (nd : W.node) ->
          Hashtbl.replace node_of (nd.W.n_func, nd.W.n_path) nd)
        wet.W.nodes;
      let nexec = Hashtbl.create 64 in
      let blkc = ref 0 in
      Array.iter
        (fun pkey ->
          let f, pid = T.decode_path pkey in
          let node = Hashtbl.find node_of (f, pid) in
          let inst =
            Option.value (Hashtbl.find_opt nexec node.W.n_id) ~default:0
          in
          Hashtbl.replace nexec node.W.n_id (inst + 1);
          Array.iteri
            (fun bp _ ->
              let cd = tr.T.cd_producer.(!blkc) in
              incr blkc;
              let copy = node.W.n_copy_base + node.W.n_block_start.(bp) in
              let want =
                if cd < 0 then None
                else Some (r.pos_copy.(cd), r.pos_inst.(cd))
              in
              if S.resolve_cd sess copy inst <> want then
                Alcotest.failf "%s: cd mismatch node %d bp %d inst %d" name
                  node.W.n_id bp inst)
            node.W.n_blocks)
        tr.T.paths)

let test_control_flow_trace () =
  each_tier (fun name tr wet ->
      let sess = W.open_session wet in
      let out = ref [] in
      let n =
        Query.Session.control_flow sess Query.Forward ~f:(fun f b ->
            out := T.encode_block f b :: !out)
      in
      Alcotest.(check int) (name ^ " block count") (Array.length tr.T.blocks) n;
      if Array.of_list (List.rev !out) <> tr.T.blocks then
        Alcotest.failf "%s: forward control-flow trace differs" name;
      (* cursors are now at the end: extract backward *)
      let out = ref [] in
      ignore
        (Query.Session.control_flow sess Query.Backward ~f:(fun f b ->
             out := T.encode_block f b :: !out));
      if Array.of_list !out <> tr.T.blocks then
        Alcotest.failf "%s: backward control-flow trace differs" name)

(* Per-load value traces: ground truth collected from the raw trace. *)
let test_load_values () =
  each_tier (fun name tr wet ->
      let r = replay wet tr in
      let truth = Hashtbl.create 64 in
      iter_instances r (fun c _ pos ->
          match W.instr_of_copy wet c with
          | Instr.Load _ ->
            let l = Option.value (Hashtbl.find_opt truth c) ~default:[] in
            Hashtbl.replace truth c (tr.T.values.(pos) :: l)
          | _ -> ());
      let got = Hashtbl.create 64 in
      let total =
        Query.Session.load_values (W.open_session wet) ~f:(fun c v ->
            let l = Option.value (Hashtbl.find_opt got c) ~default:[] in
            Hashtbl.replace got c (v :: l))
      in
      let expected_total =
        Hashtbl.fold (fun _ l acc -> acc + List.length l) truth 0
      in
      Alcotest.(check int) (name ^ " load count") expected_total total;
      Hashtbl.iter
        (fun c l ->
          match Hashtbl.find_opt got c with
          | Some l' when l = l' -> ()
          | _ -> Alcotest.failf "%s: load values differ for copy %d" name c)
        truth)

(* Address traces: ground truth from the trace's memory operations. *)
let test_addresses () =
  each_tier (fun name tr wet ->
      let r = replay wet tr in
      let truth = Hashtbl.create 64 in
      let memc = ref 0 in
      iter_instances r (fun c _ _ ->
          if Instr.is_memory (W.instr_of_copy wet c) then begin
            let op = tr.T.mem_ops.(!memc) in
            incr memc;
            let l = Option.value (Hashtbl.find_opt truth c) ~default:[] in
            Hashtbl.replace truth c ((op lsr 1) :: l)
          end);
      let got = Hashtbl.create 64 in
      let total =
        Query.Session.addresses (W.open_session wet) ~f:(fun c a ->
            let l = Option.value (Hashtbl.find_opt got c) ~default:[] in
            Hashtbl.replace got c (a :: l))
      in
      Alcotest.(check int) (name ^ " address count")
        (Array.length tr.T.mem_ops) total;
      Hashtbl.iter
        (fun c l ->
          match Hashtbl.find_opt got c with
          | Some l' when l = l' -> ()
          | _ -> Alcotest.failf "%s: addresses differ for copy %d" name c)
        truth)

(* ------------------------------------------------------------------ *)
(* Slices                                                             *)
(* ------------------------------------------------------------------ *)

let test_slices_match_tiers () =
  List.iter
    (fun (name, _, w1, w2) ->
      let outputs =
        Query.copies_matching w1 (function Instr.Output _ -> true | _ -> false)
      in
      let s1 = W.open_session w1 and s2 = W.open_session w2 in
      List.iter
        (fun c ->
          let node = W.node_of_copy w1 c in
          let i = node.W.n_nexec - 1 in
          let r1 = Slice.Session.backward s1 c i in
          let r2 = Slice.Session.backward s2 c i in
          if r1 <> r2 then Alcotest.failf "%s: tier slices differ" name;
          Alcotest.(check bool) (name ^ " slice nonempty") true
            (r1.Slice.instances >= 1))
        outputs)
    (Lazy.force built)

(* Every slice the WET answers equals the raw-trace walk's, on both tiers
   of every program, from every 7th execution and from the last one. *)
let test_slices_match_trace () =
  each_tier (fun name tr wet ->
      let r = replay wet tr in
      let oracle = trace_backward r in
      let sess = W.open_session wet in
      let n = tr.T.nstmts in
      for p = 0 to n - 1 do
        if p mod 7 = 0 || p = n - 1 then
          let c = r.pos_copy.(p) and i = r.pos_inst.(p) in
          if wet_backward sess c i <> oracle p then
            Alcotest.failf
              "%s: the slice from position %d (copy %d, instance %d) differs \
               from the raw-trace walk"
              name p c i
      done)

let test_slice_contents () =
  (* hand-checked example: slicing the printed sum pulls in exactly the
     statements that feed it *)
  let src =
    {|
fn main() {
  var a = 3;
  var b = 4;
  var unused = 99;
  var s = a * a + b * b;
  print(s);
}
|}
  in
  let prog = Wet_minic.Frontend.compile_exn src in
  let wet = Builder.run_streaming ~program:prog ~input:[||] () in
  let out =
    List.hd
      (Query.copies_matching wet (function Instr.Output _ -> true | _ -> false))
  in
  let consts = ref [] in
  let r =
    Slice.Session.backward (W.open_session wet) out 0 ~f:(fun c _ ->
        match W.instr_of_copy wet c with
        | Instr.Const (_, v) -> consts := v :: !consts
        | _ -> ())
  in
  Alcotest.(check bool) "not truncated" false r.Slice.truncated;
  let sorted = List.sort compare !consts in
  Alcotest.(check (list int)) "constants feeding the sum" [ 3; 4 ] sorted

let test_backward_forward_duality () =
  let _, _, w1, _ = List.hd (Lazy.force built) in
  let outputs =
    Query.copies_matching w1 (function Instr.Output _ -> true | _ -> false)
  in
  let c = List.hd outputs in
  let i = (W.node_of_copy w1 c).W.n_nexec - 1 in
  let sess = W.open_session w1 in
  let members = ref [] in
  ignore
    (Slice.Session.backward sess c i ~f:(fun c' i' ->
         members := (c', i') :: !members));
  (* spot-check a handful of members: the criterion must appear in their
     forward slices *)
  let sample = List.filteri (fun k _ -> k mod 7 = 0) !members in
  List.iter
    (fun (c', i') ->
      let found = ref false in
      ignore
        (Slice.Session.forward sess c' i' ~f:(fun c'' i'' ->
             if c'' = c && i'' = i then found := true));
      Alcotest.(check bool)
        (Printf.sprintf "criterion in forward slice of (%d,%d)" c' i')
        true !found)
    sample

let test_slice_truncation () =
  let _, _, w1, _ = List.hd (Lazy.force built) in
  let outputs =
    Query.copies_matching w1 (function Instr.Output _ -> true | _ -> false)
  in
  let c = List.nth outputs (List.length outputs - 1) in
  let r = Slice.Session.backward ~max_instances:3 (W.open_session w1) c 0 in
  Alcotest.(check int) "capped" 3 r.Slice.instances;
  Alcotest.(check bool) "flagged" true r.Slice.truncated

(* A criterion the container does not hold is a query error naming the
   copy, the instance and the range, on every slice entry point: not a
   phantom slice, and not a bare index error. *)
let test_slice_criteria () =
  let has_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (name, _, w1, w2) ->
      List.iter
        (fun wet ->
          let s = W.open_session wet in
          let ncopies = W.num_copies wet in
          let c =
            List.hd
              (Query.copies_matching wet (function
                | Instr.Output _ -> true
                | _ -> false))
          in
          let n = (W.node_of_copy wet c).W.n_nexec in
          let refused (bc, bi) what run =
            match run () with
            | (_ : Slice.result) ->
              Alcotest.failf "%s: %s from (%d, %d) was not refused" name what
                bc bi
            | exception Wet_error.Error { Wet_error.stage = Query; msg } ->
              let range =
                if bc < 0 || bc >= ncopies then Printf.sprintf "[0,%d)" ncopies
                else Printf.sprintf "[0,%d)" n
              in
              List.iter
                (fun part ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %S names %s" name msg part)
                    true (has_sub msg part))
                [ Printf.sprintf "copy %d, instance %d" bc bi; range ]
          in
          List.iter
            (fun ((bc, bi) as bad) ->
              refused bad "backward" (fun () -> Slice.Session.backward s bc bi);
              refused bad "forward" (fun () -> Slice.Session.forward s bc bi);
              refused bad "chop source" (fun () ->
                  Slice.Session.chop s ~source:bad ~sink:(c, 0));
              refused bad "chop sink" (fun () ->
                  Slice.Session.chop s ~source:(c, 0) ~sink:bad))
            [ (c, n); (c, -1); (ncopies, 0); (-1, 0) ];
          (* both ends of the range still slice *)
          List.iter
            (fun i ->
              Alcotest.(check bool) (name ^ " in-range criterion") true
                ((Slice.Session.backward s c i).Slice.instances >= 1))
            [ 0; n - 1 ])
        [ w1; w2 ])
    (Lazy.force built)

(* ------------------------------------------------------------------ *)
(* Sizes and statistics invariants                                    *)
(* ------------------------------------------------------------------ *)

let test_sizes () =
  List.iter
    (fun (name, _, w1, w2) ->
      let o = Sizes.original w1 in
      let c1 = Sizes.current w1 in
      let c2 = Sizes.current w2 in
      Alcotest.(check bool) (name ^ " orig positive") true (o.Sizes.total_bytes > 0.);
      Alcotest.(check bool) (name ^ " tier2 <= tier1") true
        (c2.Sizes.total_bytes <= c1.Sizes.total_bytes +. 1.);
      Alcotest.(check bool) (name ^ " tier1 < orig") true
        (c1.Sizes.total_bytes < o.Sizes.total_bytes);
      Alcotest.(check bool) (name ^ " originals agree across tiers") true
        (Sizes.original w2 = o))
    (Lazy.force built)

(* Every dynamic dependence instance is represented exactly once:
   either inferable (Local) or stored on a labeled edge. *)
let test_stats_conservation () =
  List.iter
    (fun (name, _, w1, _) ->
      let stored = ref 0 in
      let seen = Hashtbl.create 256 in
      let count_labels shared_ok (l : W.labels) =
        if shared_ok || not (Hashtbl.mem seen l.W.l_id) then begin
          Hashtbl.replace seen l.W.l_id ();
          ignore shared_ok
        end;
        stored := !stored + l.W.l_len
      in
      let count_source = function
        | W.No_dep | W.Local _ -> ()
        | W.Remote es -> List.iter (fun e -> count_labels true e.W.e_labels) es
      in
      Array.iter (Array.iter count_source) w1.W.copy_deps;
      (* control-dependence edges stand for every statement of their
         block, so expand them by block statement counts *)
      let cd_stored = ref 0 in
      Array.iter
        (fun (n : W.node) ->
          Array.iteri
            (fun bp src ->
              let stmts_in_block =
                (if bp + 1 < Array.length n.W.n_block_start then
                   n.W.n_block_start.(bp + 1)
                 else Array.length n.W.n_stmts)
                - n.W.n_block_start.(bp)
              in
              match src with
              | W.No_dep | W.Local _ -> ()
              | W.Remote es ->
                List.iter
                  (fun (e : W.edge) ->
                    cd_stored := !cd_stored + (e.W.e_labels.W.l_len * stmts_in_block))
                  es)
            n.W.n_cd)
        w1.W.nodes;
      let s = w1.W.stats in
      (* data deps: stored-or-local, minus holes, matches the count *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: dep conservation (%d stored + %d local vs %d+%d)"
           name !stored s.W.local_dep_instances s.W.dep_instances s.W.cd_instances)
        true
        (!stored + !cd_stored + s.W.local_dep_instances
         >= s.W.dep_instances))
    (Lazy.force built)

let test_cf_successors_cover () =
  (* every node except the first has a predecessor; succ/pred symmetry *)
  List.iter
    (fun (name, _, w1, _) ->
      Array.iter
        (fun (n : W.node) ->
          Array.iter
            (fun s ->
              let s_preds = w1.W.nodes.(s).W.n_preds in
              Alcotest.(check bool) (name ^ " pred symmetry") true
                (Array.exists (fun p -> p = n.W.n_id) s_preds))
            n.W.n_succs)
        w1.W.nodes)
    (Lazy.force built)

let test_pack_rejects_packed () =
  let _, _, _, w2 = List.hd (Lazy.force built) in
  Alcotest.check_raises "double pack"
    (Wet_error.Error { Wet_error.stage = Wet_error.Pack; msg = "already packed" })
    (fun () -> ignore (Builder.pack w2))

(* An extraction's count is the number of callbacks it made, and a
   backward walk started where the forward walk left the timestamp
   cursors, without re-parking, counts what the forward walk counted
   and visits its blocks in reverse. *)
let test_callback_walks () =
  each_tier (fun name _tr wet ->
      let sess = W.open_session wet in
      let fwd = ref [] in
      let nf =
        Query.Session.control_flow sess Query.Forward ~f:(fun f b ->
            fwd := (f, b) :: !fwd)
      in
      Alcotest.(check int) (name ^ " cf count") (List.length !fwd) nf;
      let bwd = ref [] in
      let nb =
        Query.Session.control_flow sess Query.Backward ~f:(fun f b ->
            bwd := (f, b) :: !bwd)
      in
      Alcotest.(check int) (name ^ " backward cf count") nf nb;
      Alcotest.(check bool)
        (name ^ " backward walk reverses the forward one")
        true
        (!bwd = List.rev !fwd);
      let calls = ref 0 in
      let n = Query.Session.load_values sess ~f:(fun _ _ -> incr calls) in
      Alcotest.(check int) (name ^ " load count") !calls n;
      calls := 0;
      let n = Query.Session.addresses sess ~f:(fun _ _ -> incr calls) in
      Alcotest.(check int) (name ^ " address count") !calls n)

let base_suites =
    [
      ( "reconstruction",
        [
          Alcotest.test_case "values" `Quick test_values;
          Alcotest.test_case "data dependences" `Quick test_deps;
          Alcotest.test_case "control dependences" `Quick test_control_deps;
          Alcotest.test_case "control-flow traces" `Quick test_control_flow_trace;
          Alcotest.test_case "load value traces" `Quick test_load_values;
          Alcotest.test_case "address traces" `Quick test_addresses;
        ] );
      ( "slices",
        [
          Alcotest.test_case "tiers agree" `Quick test_slices_match_tiers;
          Alcotest.test_case "agrees with a raw-trace walk" `Quick
            test_slices_match_trace;
          Alcotest.test_case "contents" `Quick test_slice_contents;
          Alcotest.test_case "duality" `Quick test_backward_forward_duality;
          Alcotest.test_case "truncation" `Quick test_slice_truncation;
          Alcotest.test_case "criteria out of range" `Quick test_slice_criteria;
        ] );
      ( "sizes",
        [
          Alcotest.test_case "orderings" `Quick test_sizes;
          Alcotest.test_case "dep conservation" `Quick test_stats_conservation;
        ] );
      ( "structure",
        [
          Alcotest.test_case "cf successor symmetry" `Quick test_cf_successors_cover;
          Alcotest.test_case "pack guard" `Quick test_pack_rejects_packed;
          Alcotest.test_case "callback walk counts" `Quick test_callback_walks;
        ] );
    ]

(* Persistence (round trips, corruption, salvage, atomicity) is
   exercised exhaustively in test_store.ml. *)

(* ------------------------------------------------------------------ *)
(* Partial traversal from arbitrary execution points                  *)
(* ------------------------------------------------------------------ *)

let test_locate_time () =
  each_tier (fun name tr wet ->
      let sess = W.open_session wet in
      let total = Array.length tr.T.paths in
      (* every timestamp locates to the path that produced it *)
      List.iter
        (fun ts ->
          match Query.Session.locate_time sess ts with
          | None -> Alcotest.failf "%s: ts %d not located" name ts
          | Some (nid, i) ->
            let n = wet.W.nodes.(nid) in
            let f, pid = T.decode_path tr.T.paths.(ts - 1) in
            if n.W.n_func <> f || n.W.n_path <> pid then
              Alcotest.failf "%s: ts %d located to wrong node" name ts;
            if (W.Stream.contents n.W.n_ts).(i) <> ts then
              Alcotest.failf "%s: ts %d wrong instance" name ts)
        [ 1; 2; total / 2; total ];
      Alcotest.(check (option (pair int int))) (name ^ " out of range") None
        (Query.Session.locate_time sess (total + 1));
      Alcotest.(check (option (pair int int))) (name ^ " zero") None
        (Query.Session.locate_time sess 0))

let test_control_flow_from () =
  each_tier (fun name tr wet ->
      let total = Array.length tr.T.paths in
      let start_ts = max 1 (total / 3) in
      let steps = min 10 (total - start_ts) in
      (* ground truth: expand paths [start_ts-1 .. start_ts-1+steps] *)
      let module PA = Wet_cfg.Program_analysis in
      let expected = ref [] in
      for k = start_ts - 1 to start_ts - 1 + steps do
        let f, pid = T.decode_path tr.T.paths.(k) in
        let bl = (PA.fn tr.T.analysis f).PA.bl in
        List.iter
          (fun b -> expected := T.encode_block f b :: !expected)
          (Wet_cfg.Ball_larus.blocks_of_path bl pid)
      done;
      let got = ref [] in
      let n =
        Query.Session.control_flow_from (W.open_session wet) ~start_ts ~steps
          ~f:(fun f b -> got := T.encode_block f b :: !got)
      in
      Alcotest.(check int) (name ^ " partial block count")
        (List.length !expected) n;
      if !got <> !expected then
        Alcotest.failf "%s: partial control flow differs" name)


let test_chop () =
  (* source -> sink along a clear dependence chain; unrelated values
     are excluded *)
  let src =
    {|
fn main() {
  var seed = 5;
  var unrelated = 100;
  var a = seed * 2;
  var b = a + 3;
  var c = unrelated - 1;
  print(b + c);
}
|}
  in
  let prog = Wet_minic.Frontend.compile_exn src in
  let wet = Builder.run_streaming ~program:prog ~input:[||] () in
  (* find the Const 5 (seed) and the Output *)
  let find pred = List.hd (Wet_core.Query.copies_matching wet pred) in
  let seed = find (function Instr.Const (_, 5) -> true | _ -> false) in
  let unrelated = find (function Instr.Const (_, 100) -> true | _ -> false) in
  let out = find (function Instr.Output _ -> true | _ -> false) in
  let sess = W.open_session wet in
  let members = ref [] in
  let r =
    Slice.Session.chop sess ~source:(seed, 0) ~sink:(out, 0)
      ~f:(fun c _ -> members := c :: !members)
  in
  Alcotest.(check bool) "chop nonempty" true (r.Slice.instances >= 3);
  Alcotest.(check bool) "source in chop" true (List.mem seed !members);
  Alcotest.(check bool) "sink in chop" true (List.mem out !members);
  Alcotest.(check bool) "unrelated excluded" false (List.mem unrelated !members);
  (* chopping from a value the sink does not depend on is empty *)
  let r2 = Slice.Session.chop sess ~source:(unrelated, 0) ~sink:(seed, 0) in
  Alcotest.(check int) "independent chop empty" 0 r2.Slice.instances


let test_interprocedural_cd () =
  let src =
    {|
fn leaf(x) { return x + 1; }
fn main() {
  var n = 3;
  var r = 0;
  if (n > 2) { r = leaf(n); }
  print(r);
}
|}
  in
  let prog = Wet_minic.Frontend.compile_exn src in
  let slice_stmts interprocedural_cd =
    let wet =
      Builder.run_streaming ~interprocedural_cd ~program:prog ~input:[||] ()
    in
    (* slice from leaf's add statement: with interprocedural CD it must
       pull in the call and the guarding branch in main *)
    let add =
      List.hd
        (Wet_core.Query.copies_matching wet (function
          | Instr.Binop (Instr.Add, _, _, _) -> true
          | _ -> false))
    in
    let kinds = ref [] in
    ignore
      (Slice.Session.backward (W.open_session wet) add 0 ~f:(fun c _ ->
           kinds := W.instr_of_copy wet c :: !kinds));
    !kinds
  in
  let intra = slice_stmts false in
  let inter = slice_stmts true in
  let has_branch l = List.exists (function Instr.Branch _ -> true | _ -> false) l in
  let has_call l = List.exists (function Instr.Call _ -> true | _ -> false) l in
  Alcotest.(check bool) "intra slice misses the guarding branch" false
    (has_branch intra);
  Alcotest.(check bool) "inter slice contains the call" true (has_call inter);
  Alcotest.(check bool) "inter slice contains the guarding branch" true
    (has_branch inter);
  Alcotest.(check bool) "inter is a superset" true
    (List.length inter > List.length intra)


(* End-to-end fuzz: random programs with loops, calls, arrays and input
   go through the full pipeline; every reconstruction the WET offers is
   checked against the raw trace, on both tiers, for builds at several
   shard sizes — so the sink's own call/return patching and eviction are
   checked against [Interp.run]'s independently patched trace — and so
   is the backward slice from every statement execution. *)
let random_program rng =
  let stmts =
    List.init 7 (fun i ->
        match Wet_util.Prng.int rng 7 with
        | 0 -> Printf.sprintf "x = x * 3 + y - %d;" i
        | 1 -> Printf.sprintf "g[(x + %d) %% 8] = y; y = g[y %% 8] + 1;" i
        | 2 -> Printf.sprintf "if (x %% 4 == %d) { y = deep(x %% 5, y); } else { x = x - 1; }" (i mod 4)
        | 3 -> Printf.sprintf "var w%d = 0; while (w%d < x %% 6) { y = y + g[w%d %% 8]; w%d = w%d + 1; }" i i i i i
        | 4 -> Printf.sprintf "x = x + input();"
        | 5 -> Printf.sprintf "g[%d] = g[%d] + x;" (i mod 8) ((i + 3) mod 8)
        | _ -> Printf.sprintf "y = helper(x %% 9) + y;")
  in
  Printf.sprintf
    {|
global g[8];
fn helper(a) {
  var t = a;
  while (t > 2) { t = t - 2; }
  return t + g[a %% 8];
}
fn deep(a, b) {
  if (a <= 0) { return b; }
  return deep(a - 1, b + a);
}
fn main() {
  var x = %d;
  var y = %d;
  %s
  print(x + y);
}
|}
    (5 + Wet_util.Prng.int rng 20)
    (Wet_util.Prng.int rng 10)
    (String.concat "\n  " stmts)

let fuzz_one seed =
  let rng = Wet_util.Prng.create (seed * 131 + 7) in
  let src = random_program rng in
  let prog = Wet_minic.Frontend.compile_exn src in
  let input = Array.init 64 (fun i -> (i * 17) mod 23) in
  match Interp.run prog ~input with
  | exception Wet_error.Error _ -> true (* e.g. input exhausted: fine *)
  | res ->
    let tr = res.Interp.trace in
    let check wet =
      let sess = W.open_session wet in
      (* control flow *)
      let out = ref [] in
      ignore
        (Query.Session.control_flow sess Query.Forward ~f:(fun f b ->
             out := T.encode_block f b :: !out));
      let cf_ok = Array.of_list (List.rev !out) = tr.T.blocks in
      (* values and dependences *)
      let r = replay wet tr in
      (* backward slices from every statement execution *)
      let oracle = trace_backward r in
      let slices_ok = ref true in
      for p = 0 to tr.T.nstmts - 1 do
        if wet_backward sess r.pos_copy.(p) r.pos_inst.(p) <> oracle p then
          slices_ok := false
      done;
      let vals_ok = ref true in
      let deps_ok = ref true in
      let depc = ref 0 in
      iter_instances r (fun c i pos ->
          (if wet.W.copy_uvals.(c) <> None then
             if S.value_of_copy sess c i <> tr.T.values.(pos) then
               vals_ok := false);
          let k = Instr.dyn_use_count (W.instr_of_copy wet c) in
          for s = 0 to k - 1 do
            let producer = tr.T.deps.(!depc) in
            incr depc;
            let want =
              if producer < 0 then None
              else Some (r.pos_copy.(producer), r.pos_inst.(producer))
            in
            if S.resolve_dep sess c i s <> want then deps_ok := false
          done);
      cf_ok && !vals_ok && !deps_ok && !slices_ok
    in
    List.for_all
      (fun shard_events ->
        let w1 = Builder.run_streaming ~shard_events ~program:prog ~input () in
        check w1 && check (Builder.pack w1))
      [ 1; 7; Builder.Sink.default_shard_events ]

let prop_pipeline_fuzz =
  QCheck.Test.make ~name:"random programs reconstruct exactly on both tiers"
    ~count:15 QCheck.small_int fuzz_one

let more_suites =
  [
    ("fuzz", [ QCheck_alcotest.to_alcotest prop_pipeline_fuzz ]);
    ("chop", [ Alcotest.test_case "source-sink chop" `Quick test_chop ]);
    ( "interprocedural-cd",
      [ Alcotest.test_case "slices gain caller context" `Quick test_interprocedural_cd ] );
    ( "execution-points",
      [
        Alcotest.test_case "locate_time" `Quick test_locate_time;
        Alcotest.test_case "control_flow_from" `Quick test_control_flow_from;
      ] );
  ]

let () = Alcotest.run "core" (base_suites @ more_suites)
