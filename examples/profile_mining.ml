(* Mining a WET for cross-profile program characteristics — the paper's
   stated purpose ("a basis for a next generation software tool that
   will enable mining of program profiles"). Three miners run over one
   benchmark's WET:

   1. instruction isomorphism (value profiles + dependence structure):
      statements provably producing identical value sequences;
   2. hot data streams (address profiles, Chilimbi's grammar method);
   3. a Graphviz export of a slice's dependence subgraph, written next
      to the binary for inspection.

     dune exec examples/profile_mining.exe [benchmark] *)

module W = Wet_core.Wet
module Iso = Wet_analyses.Isomorphism
module HS = Wet_analyses.Hot_streams
module Dot = Wet_analyses.Dot_export
module Spec = Wet_workloads.Spec
module Table = Wet_report.Table

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "256.bzip2" in
  let w = Spec.find name in
  Printf.printf "mining %s\n\n" w.Spec.name;
  let scale = w.Spec.timing_scale in
  let wet =
    Wet_core.Builder.run_streaming ~program:(Spec.compile w)
      ~input:(Spec.input w ~scale) ()
  in
  (* the raw trace, for the hot data streams of section 2 *)
  let res = Spec.run ~scale w in

  (* 1. isomorphism *)
  let iso, total, redundant = Iso.summary wet in
  Printf.printf
    "isomorphism: %d of %d def copies provably repeat a sibling's value\n\
     sequence (%d redundant value-producing executions)\n\n"
    iso total redundant;
  let classes =
    Iso.classes wet
    |> List.sort (fun a b -> compare b.Iso.executions a.Iso.executions)
  in
  List.iteri
    (fun i (k : Iso.klass) ->
      if i < 5 then begin
        Printf.printf "  class of %d (executed %d times, %d distinct values):\n"
          (List.length k.Iso.members) k.Iso.executions k.Iso.distinct_values;
        List.iter
          (fun c ->
            Printf.printf "    %s\n"
              (Fmt.str "%a" Wet_ir.Instr.pp (W.instr_of_copy wet c)))
          k.Iso.members
      end)
    classes;
  print_newline ();

  (* frequent value locality (Yang & Gupta, cited by the paper) *)
  let freq = Wet_analyses.Value_locality.frequent ~top:5 wet in
  Printf.printf "frequent load values (top 5 cover %.1f%% of all loads):\n"
    (100. *. Wet_analyses.Value_locality.coverage wet ~top:5);
  List.iter (fun (v, c) -> Printf.printf "  %d  (%d occurrences)\n" v c) freq;
  print_newline ();

  (* 2. hot data streams *)
  let addrs = HS.address_trace res.Wet_interp.Interp.trace in
  let sample = Array.sub addrs 0 (min 60_000 (Array.length addrs)) in
  let streams = HS.mine ~min_length:6 sample in
  let rows =
    List.filteri (fun i _ -> i < 8) streams
    |> List.map (fun (s : HS.stream) ->
           [
             string_of_int (Array.length s.HS.addresses);
             string_of_int s.HS.uses;
             string_of_int s.HS.heat;
             String.concat " "
               (Array.to_list
                  (Array.map string_of_int
                     (Array.sub s.HS.addresses 0 (min 6 (Array.length s.HS.addresses)))))
             ^ (if Array.length s.HS.addresses > 6 then " ..." else "");
           ])
  in
  Table.print ~title:"Hot data streams (Sequitur over the address trace)."
    ~align:Table.[ Right; Right; Right; Left ]
    ~header:[ "Length"; "Uses"; "Heat"; "Addresses" ]
    rows;
  Printf.printf "trace coverage by mined streams: %.1f%%\n\n"
    (100. *. HS.coverage streams sample);

  (* 3. slice subgraph to Graphviz *)
  let out =
    List.hd
      (Wet_core.Query.copies_matching wet (function
        | Wet_ir.Instr.Output _ -> true
        | _ -> false))
  in
  let dot = Dot.slice ~max_instances:48 (W.open_session wet) out 0 in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "wet_slice.dot" in
  let oc = open_out path in
  output_string oc dot;
  close_out oc;
  Printf.printf "slice dependence subgraph written to %s\n" path;
  Printf.printf "  (render with: dot -Tsvg %s -o slice.svg)\n" path
