module W = Wet_core.Wet
module Query = Wet_core.Query
module Slice = Wet_core.Slice
module Table = Wet_report.Table
module Explain = Wet_watch.Explain
module Qprof = Wet_qprof.Qprof
module State_reconstruct = Wet_analyses.State_reconstruct
module Insight_report = Wet_insight.Report
module Insight_json = Wet_insight.Json

(* [Table.print] is render + print_newline, so the line list keeps the
   trailing "" — print_endline turns it back into the blank line. *)
let table_lines ?align ~title ~header rows =
  String.split_on_char '\n' (Table.render ?align ~title ~header rows)

type trace_kind = Cf | Values | Addresses

let trace_kind_of_string = function
  | "cf" -> Ok Cf
  | "values" -> Ok Values
  | "addresses" -> Ok Addresses
  | s ->
    Error
      (Printf.sprintf "unknown trace kind %S (cf, values or addresses)" s)

(* The walk visits every row, since its total line counts them and its
   cursor moves are the query's cost; only the first [limit] rows are
   formatted. *)
let trace s ~kind ~limit =
  let wet = W.Session.wet s in
  let lines = ref [] in
  let printed = ref 0 in
  let room () = !printed < limit in
  let keep line =
    lines := line :: !lines;
    incr printed
  in
  (match kind with
   | Cf ->
     (* [control_flow] replays the timestamp chain from parked cursors;
        a previous request on this session may have left them
        mid-stream. Other sessions' cursors are unaffected. *)
     Query.Session.park s Query.Forward;
     let n =
       Query.Session.control_flow s Query.Forward ~f:(fun f b ->
           if room () then keep (Printf.sprintf "f%d:B%d" f b))
     in
     lines := Printf.sprintf "... (%d block executions total)" n :: !lines
   | Values ->
     let n =
       Query.Session.load_values s ~f:(fun c v ->
           if room () then
             keep
               (Printf.sprintf "load copy %d (stmt %d): %d" c
                  wet.W.copy_stmt.(c) v))
     in
     lines := Printf.sprintf "... (%d load values total)" n :: !lines
   | Addresses ->
     let n =
       Query.Session.addresses s ~f:(fun c a ->
           if room () then
             keep
               (Printf.sprintf "mem copy %d (stmt %d): @%d" c
                  wet.W.copy_stmt.(c) a))
     in
     lines := Printf.sprintf "... (%d addresses total)" n :: !lines);
  List.rev !lines

let slice s ~output =
  let wet = W.Session.wet s in
  let outs =
    Query.copies_matching wet (function
      | Wet_ir.Instr.Output _ -> true
      | _ -> false)
  in
  let instances =
    List.concat_map
      (fun c ->
        List.init (W.node_of_copy wet c).W.n_nexec (fun i ->
            (W.Session.timestamp s c i, c, i)))
      outs
    |> List.sort compare
  in
  if instances = [] then [ "program has no outputs to slice" ]
  else begin
    let total = List.length instances in
    let k = Option.value output ~default:(total - 1) in
    if k < 0 || k >= total then
      [ Printf.sprintf "output index %d out of range [0,%d)" k total ]
    else begin
      let _, c, i = List.nth instances k in
      let lines =
        ref
          [
            Printf.sprintf
              "backward WET slice of output #%d (copy %d, instance %d):" k c
              i;
          ]
      in
      let shown = ref 0 in
      let r =
        Slice.Session.backward s c i ~f:(fun c' i' ->
            if !shown < 40 then begin
              lines :=
                Printf.sprintf "  (%s) instance %d"
                  (Fmt.str "%a" Wet_ir.Instr.pp (W.instr_of_copy wet c'))
                  i'
                :: !lines;
              incr shown
            end)
      in
      lines :=
        Printf.sprintf
          "slice: %d statement instances, %d copies, %d static statements"
          r.Slice.instances r.Slice.copies r.Slice.stmts
        :: !lines;
      List.rev !lines
    end
  end

let at s ~ts =
  let wet = W.Session.wet s in
  let total = wet.W.stats.W.path_execs in
  let ts = Option.value ts ~default:(max 1 (total / 2)) in
  match Query.Session.locate_time s ts with
  | None -> [ Printf.sprintf "timestamp %d out of range [1,%d]" ts total ]
  | Some (nid, i) ->
    let n = wet.W.nodes.(nid) in
    let lines =
      ref
        [
          Printf.sprintf "t=%d of %d: execution %d of f%d/path%d (blocks %s)"
            ts total i n.W.n_func n.W.n_path
            (String.concat " "
               (Array.to_list
                  (Array.map (Printf.sprintf "B%d") n.W.n_blocks)));
        ]
    in
    let start_ts = max 1 (ts - 2) in
    lines := Printf.sprintf "control flow from t=%d:" start_ts :: !lines;
    let shown = ref 0 in
    ignore
      (Query.Session.control_flow_from s ~start_ts ~steps:4 ~f:(fun f b ->
           if !shown < 24 then begin
             lines := Printf.sprintf "  f%d:B%d" f b :: !lines;
             incr shown
           end));
    let state = State_reconstruct.at_session s ~ts in
    let scalars =
      List.filter
        (fun (_, _, size) -> size = 1)
        wet.W.program.Wet_ir.Program.globals
    in
    if scalars <> [] then begin
      lines := Printf.sprintf "global scalars at t=%d:" ts :: !lines;
      List.iter
        (fun (name, base, _) ->
          lines :=
            Printf.sprintf "  %s = %d" name (State_reconstruct.read state base)
            :: !lines)
        scalars
    end;
    List.rev !lines

let paths wet ~top =
  let nodes = Array.copy wet.W.nodes in
  Array.sort (fun a b -> compare b.W.n_nexec a.W.n_nexec) nodes;
  let rows = ref [] in
  Array.iteri
    (fun i (n : W.node) ->
      if i < top then
        rows :=
          [
            Printf.sprintf "f%d/path%d" n.W.n_func n.W.n_path;
            string_of_int n.W.n_nexec;
            string_of_int (Array.length n.W.n_stmts);
            String.concat " "
              (Array.to_list (Array.map (Printf.sprintf "B%d") n.W.n_blocks));
          ]
          :: !rows)
    nodes;
  table_lines ~title:"Hottest Ball-Larus paths."
    ~align:Table.[ Left; Right; Right; Left ]
    ~header:[ "Path"; "Executions"; "Stmts"; "Blocks" ]
    (List.rev !rows)

let stats_json wet ~label =
  let report = Insight_report.of_wet ~label wet in
  [ Insight_json.to_string (Insight_report.to_json report) ]

(* ---------------- --analyze tables ---------------- *)

let ns_ms ns = float_of_int ns /. 1e6

(* Every figure here reads the cost ledger: Actual sums the rows of the
   profiled window by stream class, and the cost rows are the window's
   totals, so Actual adds up to the decode steps. *)
let analyze wet (p : Qprof.profile) =
  let c = p.Qprof.p_total in
  let ests = Query.estimate wet p.Qprof.p_shape in
  let actual kind =
    List.fold_left
      (fun acc (s : Explain.stream_stats) ->
        if Explain.stream_kind s.Explain.e_stream = kind then
          acc + Explain.steps s
        else acc)
      0 p.Qprof.p_streams
  in
  let kinds =
    let touched =
      List.map
        (fun (s : Explain.stream_stats) ->
          Explain.stream_kind s.Explain.e_stream)
        p.Qprof.p_streams
    in
    List.fold_left
      (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
      (List.map (fun e -> e.Query.est_kind) ests)
      touched
  in
  let estimate_lines =
    if kinds = [] then
      [ "analyze: no label streams touched (answered from in-memory arrays)" ]
    else
      let rows =
        List.map
          (fun k ->
            let est = List.find_opt (fun e -> e.Query.est_kind = k) ests in
            [
              k;
              (match est with
               | Some e -> string_of_int e.Query.est_steps
               | None -> "-");
              string_of_int (actual k);
              (match est with
               | Some e when e.Query.est_exact -> "exact"
               | Some _ -> "lower bound"
               | None -> "unplanned");
            ])
          kinds
      in
      table_lines
        ~title:
          (Printf.sprintf "Estimated vs actual cursor steps (%s)."
             p.Qprof.p_shape)
        ~align:Table.[ Left; Right; Right; Left ]
        ~header:[ "Stream class"; "Estimated"; "Actual"; "Model" ]
        rows
  in
  let lookups = c.Qprof.c_hits + c.Qprof.c_misses in
  let cost_rows =
    [
      [ "wall"; Printf.sprintf "%.3f ms" (ns_ms c.Qprof.c_wall_ns) ];
      [
        "decode steps";
        Printf.sprintf "%d (fwd %d, bwd %d)" (Qprof.decode_steps c)
          c.Qprof.c_fwd c.Qprof.c_bwd;
      ];
      [ "direction switches"; string_of_int c.Qprof.c_switches ];
      [
        "seeks";
        Printf.sprintf "%d (%d decode steps inside)" c.Qprof.c_seeks
          c.Qprof.c_seek_steps;
      ];
      [
        "dictionary";
        (if lookups = 0 then "no packed entries decoded"
         else
           Printf.sprintf "%d hits / %d misses of %d entries (%.1f%% hit rate)"
             c.Qprof.c_hits c.Qprof.c_misses lookups
             (100. *. float_of_int c.Qprof.c_hits /. float_of_int lookups));
      ];
      [
        "stored bits touched";
        Printf.sprintf "%d (%.1f KB)" c.Qprof.c_bits
          (float_of_int c.Qprof.c_bits /. 8. /. 1024.);
      ];
      [
        "allocation";
        Printf.sprintf "%.2f Mwords"
          (float_of_int c.Qprof.c_alloc_words /. 1e6);
      ];
    ]
    @ (if c.Qprof.c_seq_input = 0 then []
       else
         [
           [
             "sequitur (build inside query)";
             Printf.sprintf "%d appends, %d digram hits, %d rules"
               c.Qprof.c_seq_input c.Qprof.c_seq_digram_hits
               c.Qprof.c_seq_rules_created;
           ];
         ])
    @ [
        [
          "streams touched";
          (let entry_points =
             List.fold_left
               (fun acc q -> if List.mem q acc then acc else acc @ [ q ])
               [] p.Qprof.p_queries
           in
           Printf.sprintf "%d (%s)"
             (List.length p.Qprof.p_streams)
             (if entry_points = [] then "no entry points recorded"
              else String.concat ", " entry_points));
        ];
      ]
  in
  let cost_lines =
    table_lines
      ~title:(Printf.sprintf "Query cost (%s)." p.Qprof.p_outcome)
      ~align:Table.[ Left; Left ]
      ~header:[ "Cost"; "Value" ]
      cost_rows
  in
  estimate_lines @ cost_lines
  @ List.map (fun h -> Printf.sprintf "hint: %s" h) (Qprof.hints p)
