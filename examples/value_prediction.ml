(* Designing load value predictors from WET value profiles — one of the
   motivating uses in the paper's introduction ("value profiles have
   been used ... to perform value speculation"). The per-instruction
   load value traces of Table 7 drive four classical predictors, and
   the per-load best predictor is reported, reproducing the well-known
   result that FCM and last-n dominate on different loads.

     dune exec examples/value_prediction.exe [benchmark] *)

module W = Wet_core.Wet
module Query = Wet_core.Query
module P = Wet_predict.Predictor
module Spec = Wet_workloads.Spec
module Table = Wet_report.Table

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "255.vortex" in
  let w = Spec.find name in
  Printf.printf "load value predictability for %s\n\n" w.Spec.name;
  let scale = w.Spec.timing_scale in
  let wet =
    Wet_core.Builder.run_streaming ~program:(Spec.compile w)
      ~input:(Spec.input w ~scale) ()
  in

  (* Gather the value trace of every load with enough executions. *)
  let traces : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let s = W.open_session wet in
  let _ =
    Query.Session.load_values s ~f:(fun c v ->
        match Hashtbl.find_opt traces c with
        | Some l -> l := v :: !l
        | None -> Hashtbl.replace traces c (ref [ v ]))
  in
  let loads =
    Hashtbl.fold
      (fun c l acc ->
        let arr = Array.of_list (List.rev !l) in
        if Array.length arr >= 64 then (c, arr) :: acc else acc)
      traces []
    |> List.sort (fun (_, a) (_, b) -> compare (Array.length b) (Array.length a))
  in

  let predictors () =
    [ P.fcm ~ctx:2 (); P.dfcm ~ctx:2 (); P.last_n ~n:4; P.stride () ]
  in
  let wins = Hashtbl.create 8 in
  let rows =
    List.filteri (fun i _ -> i < 12) loads
    |> List.map (fun (c, arr) ->
           let accs =
             List.map (fun p -> (P.name p, P.accuracy p arr)) (predictors ())
           in
           let best_name, _ =
             List.fold_left
               (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
               ("", -1.) accs
           in
           Hashtbl.replace wins best_name
             (1 + Option.value (Hashtbl.find_opt wins best_name) ~default:0);
           [
             Printf.sprintf "stmt %d" wet.W.copy_stmt.(c);
             string_of_int (Array.length arr);
           ]
           @ List.map (fun (_, v) -> Printf.sprintf "%.2f" v) accs
           @ [ best_name ])
  in
  Table.print
    ~title:"Per-load predictor accuracy (fraction of values predicted)."
    ~align:Table.[ Left; Right; Right; Right; Right; Right; Left ]
    ~header:[ "Load"; "Values"; "fcm/2"; "dfcm/2"; "last-4"; "stride"; "Best" ]
    rows;

  print_newline ();
  Hashtbl.iter
    (fun name n -> Printf.printf "%s wins on %d of the hottest loads\n" name n)
    wins;
  print_endline
    "\nNo single predictor dominates - the paper's rationale for selecting\n\
     a compression method per stream (its 'Selection' paragraph) and for\n\
     hybrid value predictors in general."
