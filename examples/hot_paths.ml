(* Hot path mining — the original application of Ball-Larus path
   profiling, which the WET gets for free: its nodes are the executed
   paths and their timestamp sequences are the profile.

   Finds the hottest acyclic paths of a benchmark and shows what share
   of all statement executions the top paths cover (the classic "a few
   paths dominate" observation that path-sensitive optimisation relies
   on).

     dune exec examples/hot_paths.exe [benchmark] *)

module W = Wet_core.Wet
module Spec = Wet_workloads.Spec
module Table = Wet_report.Table

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "197.parser" in
  let w = Spec.find name in
  Printf.printf "mining hot paths of %s (%s)\n\n" w.Spec.name w.Spec.description;
  let scale = w.Spec.timing_scale in
  let wet =
    Wet_core.Builder.run_streaming ~program:(Spec.compile w)
      ~input:(Spec.input w ~scale) ()
  in

  let nodes = Array.copy wet.W.nodes in
  Array.sort (fun a b -> compare b.W.n_nexec a.W.n_nexec) nodes;
  let total_stmts = wet.W.stats.W.stmts_executed in

  let cumulative = ref 0 in
  let rows =
    List.filteri (fun i _ -> i < 12) (Array.to_list nodes)
    |> List.map (fun (n : W.node) ->
           let stmts = n.W.n_nexec * Array.length n.W.n_stmts in
           cumulative := !cumulative + stmts;
           [
             Printf.sprintf "f%d/path%d" n.W.n_func n.W.n_path;
             string_of_int n.W.n_nexec;
             string_of_int (Array.length n.W.n_blocks);
             Printf.sprintf "%.1f%%"
               (100. *. float_of_int stmts /. float_of_int total_stmts);
             Printf.sprintf "%.1f%%"
               (100. *. float_of_int !cumulative /. float_of_int total_stmts);
           ])
  in
  Table.print ~title:"Hottest Ball-Larus paths."
    ~align:Table.[ Left; Right; Right; Right; Right ]
    ~header:[ "Path"; "Executions"; "Blocks"; "Stmt share"; "Cumulative" ]
    rows;

  (* Expand the hottest path so the reader can see actual code. *)
  let hottest = nodes.(0) in
  Printf.printf "\nhottest path (executed %d times):\n" hottest.W.n_nexec;
  Array.iteri
    (fun o stmt ->
      let _ = o in
      Printf.printf "  %s\n"
        (Fmt.str "%a" Wet_ir.Instr.pp (Wet_ir.Program.instr wet.W.program stmt)))
    hottest.W.n_stmts
