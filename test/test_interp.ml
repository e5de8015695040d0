module Frontend = Wet_minic.Frontend
module Interp = Wet_interp.Interp
module T = Wet_interp.Trace
module Instr = Wet_ir.Instr
module Program = Wet_ir.Program

let compile src = Frontend.compile_exn src

let run ?(input = [||]) src = Interp.run (compile src) ~input

let expect_runtime_error name ?input src fragment =
  match run ?input src with
  | _ -> Alcotest.failf "%s: expected a runtime error" name
  | exception Wet_error.Error { Wet_error.stage = Wet_error.Interp; msg = m } ->
    let contains =
      let nh = String.length m and nn = String.length fragment in
      let rec go i = i + nn <= nh && (String.sub m i nn = fragment || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (name ^ ": " ^ m) true contains

let test_runtime_errors () =
  expect_runtime_error "div by zero" "fn main() { var z = 0; print(1 / z); }"
    "division by zero";
  expect_runtime_error "rem by zero" "fn main() { var z = 0; print(1 % z); }"
    "remainder by zero";
  expect_runtime_error "oob store" "global a[4]; fn main() { a[10] = 1; }"
    "out of bounds";
  expect_runtime_error "oob load" "global a[4]; fn main() { print(a[-1]); }"
    "out of bounds";
  expect_runtime_error "input exhausted" "fn main() { print(input()); }"
    "input stream exhausted";
  (* statement budget *)
  (match
     Interp.run
       (compile "fn main() { var x = 0; while (1) { x = x + 1; } }")
       ~input:[||] ~max_stmts:10_000
   with
   | _ -> Alcotest.fail "expected budget error"
   | exception Wet_error.Error { Wet_error.stage = Wet_error.Interp; msg = m } ->
     Alcotest.(check bool) "budget" true
       (String.length m > 0))

let sample =
  {|
global acc[8];
fn triple(x) { return x * 3; }
fn main() {
  var i = 0;
  while (i < 8) {
    acc[i] = triple(i) + input();
    i = i + 1;
  }
  var s = 0;
  for (var j = 0; j < 8; j = j + 1) { s = s + acc[j]; }
  print(s);
}
|}

let sample_input = Array.init 8 (fun i -> 100 + i)

let test_trace_alignment () =
  let res = run ~input:sample_input sample in
  let tr = res.Interp.trace in
  let prog = T.program tr in
  Alcotest.(check int) "values per statement" tr.T.nstmts
    (Array.length tr.T.values);
  Alcotest.(check int) "cd per block" (Array.length tr.T.blocks)
    (Array.length tr.T.cd_producer);
  (* the dependence stream has exactly sum(dyn_use_count) entries *)
  let expected_deps = ref 0 in
  let expected_mem = ref 0 in
  Array.iter
    (fun e ->
      let f, b = T.decode_block e in
      Array.iter
        (fun ins ->
          expected_deps := !expected_deps + Instr.dyn_use_count ins;
          if Instr.is_memory ins then incr expected_mem)
        prog.Program.funcs.(f).Wet_ir.Func.blocks.(b).Wet_ir.Func.instrs)
    tr.T.blocks;
  Alcotest.(check int) "deps entries" !expected_deps (Array.length tr.T.deps);
  Alcotest.(check int) "mem ops" !expected_mem (Array.length tr.T.mem_ops);
  (* statement count equals total statements of executed blocks *)
  let stmts = ref 0 in
  Array.iter
    (fun e ->
      let f, b = T.decode_block e in
      stmts :=
        !stmts
        + Array.length prog.Program.funcs.(f).Wet_ir.Func.blocks.(b).Wet_ir.Func.instrs)
    tr.T.blocks;
  Alcotest.(check int) "stmt count" !stmts tr.T.nstmts

let test_outputs_agree () =
  let res = run ~input:sample_input sample in
  let fast = Interp.outputs_only (compile sample) ~input:sample_input in
  Alcotest.(check (array int)) "recorded = unrecorded" fast res.Interp.outputs;
  (* ground truth: sum of 3i + (100+i) for i in 0..7 *)
  let expect = Array.to_list (Array.init 8 (fun i -> (3 * i) + 100 + i)) in
  Alcotest.(check (list int)) "value" [ List.fold_left ( + ) 0 expect ]
    (Array.to_list res.Interp.outputs)

let test_producer_positions () =
  let res = run ~input:sample_input sample in
  let tr = res.Interp.trace in
  (* every recorded producer position is a statement position strictly
     before... (ret links point forward) ...within range, and the value
     at a store's position is the stored value (spot check: positions of
     stores are recoverable through mem_ops ordering). *)
  Array.iter
    (fun d ->
      Alcotest.(check bool) "producer in range" true
        (d = -1 || (d >= 0 && d < tr.T.nstmts)))
    tr.T.deps

let test_path_expansion () =
  let res = run ~input:sample_input sample in
  let tr = res.Interp.trace in
  let module PA = Wet_cfg.Program_analysis in
  let expanded = ref [] in
  Array.iter
    (fun e ->
      let f, pid = T.decode_path e in
      let bl = (PA.fn tr.T.analysis f).PA.bl in
      List.iter
        (fun b -> expanded := T.encode_block f b :: !expanded)
        (Wet_cfg.Ball_larus.blocks_of_path bl pid))
    tr.T.paths;
  Alcotest.(check bool) "paths expand to blocks" true
    (Array.of_list (List.rev !expanded) = tr.T.blocks)

let test_determinism () =
  let r1 = run ~input:sample_input sample in
  let r2 = run ~input:sample_input sample in
  Alcotest.(check bool) "same trace" true
    (r1.Interp.trace.T.paths = r2.Interp.trace.T.paths
    && r1.Interp.trace.T.values = r2.Interp.trace.T.values
    && r1.Interp.trace.T.deps = r2.Interp.trace.T.deps)

let test_recursion_depth () =
  (* deep but bounded recursion works *)
  let src =
    {|fn down(n) { if (n == 0) { return 0; } return down(n - 1); }
      fn main() { print(down(20000)); }|}
  in
  Alcotest.(check (list int)) "deep recursion" [ 0 ]
    (Array.to_list (run src).Interp.outputs)


let test_recursive_main_halts () =
  (* main is an ordinary function; calling it recursively and halting
     deep inside must stop the whole program, keeping prior outputs *)
  let src =
    {|
global depth;
fn main() {
  print(depth);
  depth = depth + 1;
  if (depth < 3) { main(); }
  print(99);
}
|}
  in
  (* the implicit Halt at the end of main fires at the innermost return
     point, so the trailing print runs only once... in fact Halt ends
     everything: only the innermost 99 is printed *)
  Alcotest.(check (list int)) "halt unwinds" [ 0; 1; 2; 99 ]
    (Array.to_list (run src).Interp.outputs)

let test_no_memory_program () =
  let res = run "fn main() { var x = 1 + 2; print(x); }" in
  Alcotest.(check int) "no mem ops" 0
    (Array.length res.Interp.trace.T.mem_ops);
  Alcotest.(check bool) "still has paths" true
    (Array.length res.Interp.trace.T.paths > 0)

let test_input_across_calls () =
  let src =
    {|
fn take_two() { return input() + input(); }
fn main() { print(take_two()); print(input()); }
|}
  in
  Alcotest.(check (list int)) "consumption order" [ 30; 3 ]
    (Array.to_list (run ~input:[| 10; 20; 3 |] src).Interp.outputs)

let test_wet_on_trivial_programs () =
  (* single-path programs must build valid WETs *)
  List.iter
    (fun src ->
      let res = run src in
      let wet =
        Wet_core.Builder.run_streaming ~program:(compile src) ~input:[||] ()
      in
      let wet2 = Wet_core.Builder.pack wet in
      let n =
        Wet_core.Query.Session.control_flow
          (Wet_core.Wet.open_session wet2)
          Wet_core.Query.Forward
          ~f:(fun _ _ -> ())
      in
      Alcotest.(check int) "block count"
        (Array.length res.Interp.trace.T.blocks)
        n)
    [
      "fn main() { }";
      "fn main() { print(42); }";
      "fn f() {} fn main() { f(); }";
    ]

let () =
  Alcotest.run "interp"
    [
      ( "errors",
        [ Alcotest.test_case "runtime errors" `Quick test_runtime_errors ] );
      ( "trace",
        [
          Alcotest.test_case "stream alignment" `Quick test_trace_alignment;
          Alcotest.test_case "producer positions" `Quick test_producer_positions;
          Alcotest.test_case "path expansion" `Quick test_path_expansion;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "execution",
        [
          Alcotest.test_case "outputs agree" `Quick test_outputs_agree;
          Alcotest.test_case "recursion depth" `Quick test_recursion_depth;
          Alcotest.test_case "recursive main halts" `Quick test_recursive_main_halts;
          Alcotest.test_case "no memory ops" `Quick test_no_memory_program;
          Alcotest.test_case "input across calls" `Quick test_input_across_calls;
          Alcotest.test_case "trivial programs" `Quick test_wet_on_trivial_programs;
        ] );
    ]
