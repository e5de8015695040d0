(* Cache-conscious analysis from WET address profiles — the paper's
   introduction cites "identifying hot data streams that exhibit data
   locality" as a use of address profiles. This example extracts the
   per-instruction address traces (Table 8's query), replays them
   through caches of several geometries, and ranks the memory
   instructions by miss contribution.

     dune exec examples/cache_study.exe [benchmark] *)

module W = Wet_core.Wet
module Query = Wet_core.Query
module Cache = Wet_arch.Cache
module Spec = Wet_workloads.Spec
module Table = Wet_report.Table
module Instr = Wet_ir.Instr

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "181.mcf" in
  let w = Spec.find name in
  Printf.printf "cache behaviour of %s\n\n" w.Spec.name;
  let scale = w.Spec.timing_scale in
  let wet =
    Wet_core.Builder.run_streaming ~program:(Spec.compile w)
      ~input:(Spec.input w ~scale) ()
  in
  (* the raw trace, for the merged memory-operation order below *)
  let res = Spec.run ~scale w in

  (* Gather one address trace per memory instruction from the WET. *)
  let per_copy : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let s = W.open_session wet in
  let _ =
    Query.Session.addresses s ~f:(fun c a ->
        match Hashtbl.find_opt per_copy c with
        | Some l -> l := a :: !l
        | None ->
          Hashtbl.replace per_copy c (ref [ a ]);
          order := c :: !order)
  in

  (* Sweep cache sizes on the merged trace, in true program order. The
     merged trace is recovered from the raw trace (it is the
     interleaving the caches would see). *)
  let merged = res.Wet_interp.Interp.trace.Wet_interp.Trace.mem_ops in
  let rows =
    List.map
      (fun (size, line) ->
        let c = Cache.create ~size_words:size ~line_words:line () in
        Array.iter
          (fun op ->
            ignore (Cache.access c ~addr:(op lsr 1) ~is_store:(op land 1 = 1)))
          merged;
        let loads, lm, stores, sm = Cache.stats c in
        [
          Printf.sprintf "%d words / %d-word lines" size line;
          string_of_int (loads + stores);
          Printf.sprintf "%.2f%%" (100. *. float_of_int lm /. float_of_int (max 1 loads));
          Printf.sprintf "%.2f%%" (100. *. float_of_int sm /. float_of_int (max 1 stores));
        ])
      [ (256, 4); (1024, 4); (4096, 4); (4096, 16); (16384, 16) ]
  in
  Table.print ~title:"Miss rates across cache geometries."
    ~align:Table.[ Left; Right; Right; Right ]
    ~header:[ "Cache"; "Accesses"; "Load miss"; "Store miss" ]
    rows;
  print_newline ();

  (* Rank instructions by misses in a small cache: the "hot data
     stream" sources a prefetcher or layout optimiser would target. *)
  let ranked =
    Hashtbl.fold
      (fun c l acc ->
        let cache = Cache.create ~size_words:1024 ~line_words:4 () in
        let addrs = Array.of_list (List.rev !l) in
        Array.iter (fun a -> ignore (Cache.access cache ~addr:a ~is_store:false)) addrs;
        let _, misses, _, _ = Cache.stats cache in
        (misses, c, Array.length addrs) :: acc)
      per_copy []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare b a)
  in
  let rows =
    List.filteri (fun i _ -> i < 8) ranked
    |> List.map (fun (misses, c, n) ->
           [
             Printf.sprintf "stmt %d (%s)" wet.W.copy_stmt.(c)
               (Fmt.str "%a" Instr.pp (W.instr_of_copy wet c));
             string_of_int n;
             string_of_int misses;
           ])
  in
  Table.print
    ~title:
      "Memory instructions ranked by standalone misses (1K-word cache)."
    ~align:Table.[ Left; Right; Right ]
    ~header:[ "Instruction"; "Accesses"; "Misses" ]
    rows
