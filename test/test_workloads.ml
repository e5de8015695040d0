module Spec = Wet_workloads.Spec
module Interp = Wet_interp.Interp

(* Tiny scales keeping the whole suite fast. *)
let tiny w =
  match w.Spec.name with
  | "099.go" -> 3
  | "126.gcc" -> 25
  | "130.li" -> 12
  | "164.gzip" -> 1
  | "181.mcf" -> 1
  | "197.parser" -> 60
  | "255.vortex" -> 300
  | "256.bzip2" -> 1
  | "300.twolf" -> 2
  | _ -> 1

let test_all_compile () =
  List.iter
    (fun w ->
      let prog = Spec.compile w in
      Alcotest.(check (list Alcotest.reject)) (w.Spec.name ^ " validates") []
        (List.map (fun _ -> assert false) (Wet_ir.Validate.errors prog)))
    Spec.all

let test_all_run_deterministically () =
  List.iter
    (fun w ->
      let r1 = Spec.run ~scale:(tiny w) w in
      let r2 = Spec.run ~scale:(tiny w) w in
      Alcotest.(check (array int)) (w.Spec.name ^ " outputs stable")
        r1.Interp.outputs r2.Interp.outputs;
      Alcotest.(check int) (w.Spec.name ^ " stmts stable")
        r1.Interp.stmts_executed r2.Interp.stmts_executed;
      Alcotest.(check bool) (w.Spec.name ^ " produced output") true
        (Array.length r1.Interp.outputs > 0))
    Spec.all

let test_scaling () =
  List.iter
    (fun w ->
      let small = (Spec.run ~scale:(tiny w) w).Interp.stmts_executed in
      let large = (Spec.run ~scale:(2 * tiny w) w).Interp.stmts_executed in
      Alcotest.(check bool)
        (Printf.sprintf "%s grows with scale (%d -> %d)" w.Spec.name small large)
        true (large > small))
    Spec.all

let test_find () =
  Alcotest.(check string) "full name" "099.go" (Spec.find "099.go").Spec.name;
  Alcotest.(check string) "suffix" "181.mcf" (Spec.find "mcf").Spec.name;
  Alcotest.(check bool) "not found" true
    (match Spec.find "nonesuch" with
     | _ -> false
     | exception Not_found -> true)

let test_distinct_seeds_and_names () =
  let names = List.map (fun w -> w.Spec.name) Spec.all in
  Alcotest.(check int) "nine benchmarks" 9 (List.length names);
  Alcotest.(check int) "unique names" 9
    (List.length (List.sort_uniq compare names));
  let seeds = List.map (fun w -> w.Spec.seed) Spec.all in
  Alcotest.(check int) "unique seeds" 9
    (List.length (List.sort_uniq compare seeds))

(* The full pipeline holds on every workload (value reconstruction spot
   check through the WET). *)
let test_wet_pipeline_spot () =
  List.iter
    (fun w ->
      let res = Spec.run ~scale:(tiny w) w in
      let wet =
        Wet_core.Builder.run_streaming ~program:(Spec.compile w)
          ~input:(Spec.input w ~scale:(tiny w)) ()
      in
      let blocks = ref 0 in
      let n =
        Wet_core.Query.Session.control_flow
          (Wet_core.Wet.open_session wet)
          Wet_core.Query.Forward
          ~f:(fun _ _ -> incr blocks)
      in
      Alcotest.(check int) (w.Spec.name ^ " cf extraction") n !blocks;
      Alcotest.(check int)
        (w.Spec.name ^ " block count")
        (Array.length res.Interp.trace.Wet_interp.Trace.blocks)
        n)
    Spec.all

let () =
  Alcotest.run "workloads"
    [
      ( "registry",
        [
          Alcotest.test_case "all compile" `Quick test_all_compile;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "distinct" `Quick test_distinct_seeds_and_names;
        ] );
      ( "execution",
        [
          Alcotest.test_case "deterministic" `Quick test_all_run_deterministically;
          Alcotest.test_case "scaling" `Quick test_scaling;
          Alcotest.test_case "wet pipeline" `Quick test_wet_pipeline_spot;
        ] );
    ]
