(* Semantics of the wet_watch tracer driver: filter-spec parsing and
   printing round-trips, compiled predicates against an independent
   reference evaluator, flight-recorder wraparound, watchpoint
   timestamps agreeing with [Query.locate_time], and the named ledger
   rows: a full forward control-flow sweep pays exactly one forward
   timestamp step per path execution, and the rows a window reads
   equal a hash-table reference's. *)

module E = Wet_watch.Event
module F = Wet_watch.Filter
module FSpec = Wet_watch.Spec
module Ring = Wet_watch.Ring
module Watch = Wet_watch.Watch
module Ex = Wet_watch.Explain
module Wl = Wet_workloads.Spec
module Interp = Wet_interp.Interp
module Builder = Wet_core.Builder
module W = Wet_core.Wet
module Query = Wet_core.Query
module Slice = Wet_core.Slice
module Qprof = Wet_qprof.Qprof
module Stream = Wet_bistream.Stream
module Telemetry = Wet_bistream.Telemetry

(* One real program (with several functions) shared by the tests that
   need resolvable [fn=] atoms. *)
let prog = Wl.compile (Wl.find "parser")

let fn_names =
  Array.to_list
    (Array.map (fun (f : Wet_ir.Func.t) -> f.Wet_ir.Func.name)
       prog.Wet_ir.Program.funcs)

let filter_t = Alcotest.testable (Fmt.of_to_string FSpec.print) F.equal

let parse_exn s =
  match FSpec.parse s with
  | Ok f -> f
  | Error m -> Alcotest.fail (Printf.sprintf "parse %S: %s" s m)

(* ------------------------------------------------------------------ *)
(* Reference evaluator: independent of the compiled closure tree.      *)
(* ------------------------------------------------------------------ *)

let rec eval (f : F.t) (e : E.t) =
  match f with
  | F.True -> true
  | F.Kind k -> e.E.e_kind = k
  | F.Fn name ->
    prog.Wet_ir.Program.funcs.(e.E.e_func).Wet_ir.Func.name = name
  | F.Block b -> e.E.e_block = b
  | F.Value (lo, hi) ->
    E.has_value e.E.e_kind && lo <= e.E.e_value && e.E.e_value <= hi
  | F.Addr (lo, hi) ->
    E.has_addr e.E.e_kind && lo <= e.E.e_addr && e.E.e_addr <= hi
  | F.Not g -> not (eval g e)
  | F.All gs -> List.for_all (fun g -> eval g e) gs
  | F.Any gs -> List.exists (fun g -> eval g e) gs

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Combinator lists always have >= 2 elements and ranges are ordered,
   so printing loses nothing and [parse (print f) = Ok f] holds
   exactly (empty/singleton [All]/[Any] print as their meaning and
   round-trip only up to that normalisation). *)
let gen_filter =
  let open QCheck.Gen in
  let range lo hi =
    map2 (fun a b -> (min a b, max a b)) (int_range lo hi) (int_range lo hi)
  in
  let leaf =
    frequency
      [
        (1, return F.True);
        (4, map (fun i -> F.Kind (E.kind_of_index i)) (int_range 0 (E.num_kinds - 1)));
        (2, map (fun n -> F.Fn n) (oneofl fn_names));
        (2, map (fun b -> F.Block b) (int_range 0 6));
        (3, map (fun (lo, hi) -> F.Value (lo, hi)) (range (-4) 24));
        (3, map (fun (lo, hi) -> F.Addr (lo, hi)) (range (-1) 40));
      ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (2, map (fun f -> F.Not f) (self (depth - 1)));
            ( 2,
              map (fun fs -> F.All fs)
                (list_size (int_range 2 3) (self (depth - 1))) );
            ( 2,
              map (fun fs -> F.Any fs)
                (list_size (int_range 2 3) (self (depth - 1))) );
          ])
    3

let arb_filter = QCheck.make ~print:FSpec.print gen_filter

let gen_event =
  let open QCheck.Gen in
  let nfuncs = Array.length prog.Wet_ir.Program.funcs in
  map
    (fun (kind, (func, block, (value, addr))) ->
      {
        E.e_kind = E.kind_of_index kind;
        e_func = func;
        e_block = block;
        e_pos = 0;
        e_value = value;
        e_addr = addr;
        e_ts = 1;
      })
    (pair
       (int_range 0 (E.num_kinds - 1))
       (triple (int_range 0 (nfuncs - 1)) (int_range 0 6)
          (pair (int_range (-4) 24) (int_range (-1) 40))))

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                        *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (print f) = Ok f" ~count:500 arb_filter
    (fun f -> FSpec.parse (FSpec.print f) = Ok f)

let prop_matches_reference =
  QCheck.Test.make
    ~name:"compiled filter agrees with the reference evaluator" ~count:500
    QCheck.(
      make ~print:(fun (f, _) -> FSpec.print f)
        Gen.(pair gen_filter (list_size (int_range 1 40) gen_event)))
    (fun (f, events) ->
      let c = F.compile prog f in
      List.for_all (fun e -> F.matches c e = eval f e) events)

let test_parse_cases () =
  Alcotest.check filter_t "paper-style spec"
    (F.All [ F.Kind E.Store; F.Fn "main"; F.Addr (0x100, 0x1ff) ])
    (parse_exn "store & fn=main & addr in [0x100,0x1ff]");
  Alcotest.check filter_t "'&' binds tighter than '|'"
    (F.Any [ F.Kind E.Block_entry; F.All [ F.Kind E.Load; F.Block 2 ] ])
    (parse_exn "entry | load & block=2");
  Alcotest.check filter_t "negated group"
    (F.Not (F.Any [ F.Kind E.Load; F.Kind E.Store ]))
    (parse_exn "!(load | store)");
  Alcotest.check filter_t "'any' is True" F.True (parse_exn "any");
  Alcotest.check filter_t "val=N abbreviates a degenerate range"
    (F.Value (7, 7)) (parse_exn "val=7");
  Alcotest.check filter_t "whitespace-insensitive"
    (F.All [ F.Kind E.Use; F.Value (1, 2) ])
    (parse_exn "  use&val in [ 1 , 2 ]  ")

let test_parse_errors () =
  let bad s =
    match FSpec.parse s with
    | Ok f ->
      Alcotest.fail
        (Printf.sprintf "%S should not parse (got %s)" s (FSpec.print f))
    | Error m -> Alcotest.(check bool) "message non-empty" true (m <> "")
  in
  List.iter bad
    [ ""; "fn="; "addr in [5"; "load load"; "val in [9,3]"; "&& store";
      "frobnicate"; "block=x"; "(load"; "val in 3" ]

(* ------------------------------------------------------------------ *)
(* Kind masks and compilation                                          *)
(* ------------------------------------------------------------------ *)

let test_kind_mask () =
  Alcotest.(check int) "single kind"
    (E.kind_bit E.Store)
    (F.kind_mask (F.Kind E.Store));
  Alcotest.(check int) "value atoms restrict to value kinds" E.value_mask
    (F.kind_mask (F.Value (0, 9)));
  Alcotest.(check int) "conjunction intersects"
    (E.kind_bit E.Load)
    (F.kind_mask (F.All [ F.Kind E.Load; F.Addr (0, 9) ]));
  Alcotest.(check int) "disjunction unions"
    (E.kind_bit E.Load lor E.kind_bit E.Store)
    (F.kind_mask (F.Any [ F.Kind E.Load; F.Kind E.Store ]));
  Alcotest.(check int) "contradictions reject everything" 0
    (F.kind_mask (F.All [ F.Kind E.Block_entry; F.Value (0, 9) ]))

let test_unknown_function () =
  Alcotest.check_raises "compile rejects unknown names"
    (F.Unknown_function "no_such_fn") (fun () ->
      ignore (F.compile prog (F.Fn "no_such_fn")))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_ring_wraparound () =
  let r = Ring.create 16 in
  Alcotest.(check int) "capacity" 16 (Ring.capacity r);
  for i = 0 to 99 do
    Ring.record r ~kind:(i mod E.num_kinds) ~func:i ~block:(2 * i) ~pos:i
      ~value:(3 * i) ~addr:(5 * i) ~ts:(i + 1) ~wall_ns:(1000 + i)
  done;
  Alcotest.(check int) "total counts every record" 100 (Ring.total r);
  Alcotest.(check int) "length is bounded by capacity" 16 (Ring.length r);
  List.iteri
    (fun j ((e : E.t), wall) ->
      let i = 84 + j in
      Alcotest.(check int) "oldest-to-newest order" (i + 1) e.E.e_ts;
      Alcotest.check
        (Alcotest.testable E.pp ( = ))
        "payload survives the flat encoding"
        {
          E.e_kind = E.kind_of_index (i mod E.num_kinds);
          e_func = i;
          e_block = 2 * i;
          e_pos = i;
          e_value = 3 * i;
          e_addr = 5 * i;
          e_ts = i + 1;
        }
        e;
      Alcotest.(check int) "wall stamp kept" (1000 + i) wall)
    (Ring.to_list r);
  let e0, _ = Ring.get r 0 in
  let last, _ = Ring.get r (Ring.length r - 1) in
  Alcotest.(check int) "get 0 is the oldest retained" 85 e0.E.e_ts;
  Alcotest.(check int) "get (length-1) is the newest" 100 last.E.e_ts;
  (* before wrapping, everything is retained in insertion order *)
  let small = Ring.create 8 in
  for i = 0 to 2 do
    Ring.record small ~kind:0 ~func:0 ~block:0 ~pos:i ~value:0 ~addr:(-1)
      ~ts:(i + 1) ~wall_ns:i
  done;
  Alcotest.(check (list int)) "no wrap: insertion order" [ 1; 2; 3 ]
    (List.map (fun ((e : E.t), _) -> e.E.e_ts) (Ring.to_list small));
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create 0))

(* ------------------------------------------------------------------ *)
(* Probes on a real run                                                *)
(* ------------------------------------------------------------------ *)

let input = Wl.input (Wl.find "parser") ~scale:1

let run_with probes = Watch.with_armed probes (fun () -> Interp.run prog ~input)

let test_sampling () =
  let f = parse_exn "store & fn=main" in
  let count = Watch.probe ~name:"count" prog f Watch.Count in
  let sample = Watch.probe ~name:"sample" ~ring:4096 prog f (Watch.Sample 3) in
  ignore (run_with [ count; sample ]);
  let m = Watch.matches count in
  Alcotest.(check bool) "the filter matches something" true (m > 0);
  Alcotest.(check int) "probes see identical match streams" m
    (Watch.matches sample);
  Alcotest.(check (option reject)) "Count probes have no ring" None
    (Watch.ring count);
  let ring = Option.get (Watch.ring sample) in
  Alcotest.(check int) "1-in-3 sampling records ceil(m/3)"
    ((m + 2) / 3) (Ring.total ring)

let test_watchpoint_locates () =
  let f = parse_exn "store & fn=main" in
  (* calibrate K against what the workload actually produces *)
  let count = Watch.probe prog f Watch.Count in
  ignore (run_with [ count ]);
  let m = Watch.matches count in
  Alcotest.(check bool) "the filter matches something" true (m > 0);
  let k = min 5 m in
  let probe = Watch.probe prog f (Watch.Stop_at k) in
  ignore (run_with [ probe ]);
  let ts =
    match Watch.stopped probe with
    | Some ts -> ts
    | None -> Alcotest.fail "watchpoint did not trigger"
  in
  Alcotest.(check int) "counting continues past the stop" m
    (Watch.matches probe);
  let ring = Option.get (Watch.ring probe) in
  Alcotest.(check int) "recording stops at the K-th match" k
    (Ring.total ring);
  let last, _ = Ring.get ring (Ring.length ring - 1) in
  Alcotest.(check int) "the stop timestamp is the K-th match's" last.E.e_ts
    ts;
  let wet = Builder.run_streaming ~program:prog ~input () in
  let sess = W.open_session wet in
  match Query.Session.locate_time sess ts with
  | None -> Alcotest.fail "stopped timestamp not locatable"
  | Some (nid, i) ->
    let n = wet.W.nodes.(nid) in
    Alcotest.(check int) "located node runs the watched function"
      (F.func_id prog "main") n.W.n_func;
    Alcotest.(check bool) "located path contains the watched block" true
      (Array.exists (fun b -> b = last.E.e_block) n.W.n_blocks);
    (* round-trip: instance [i] of that node carries timestamp [ts] *)
    let copy = ref (-1) in
    for c = W.num_copies wet - 1 downto 0 do
      if W.node_of_copy wet c == n then copy := c
    done;
    Alcotest.(check bool) "node has at least one copy" true (!copy >= 0);
    Alcotest.(check int) "timestamp round-trips through the node label" ts
      (W.Session.timestamp sess !copy i)

(* ------------------------------------------------------------------ *)
(* Query explain                                                       *)
(* ------------------------------------------------------------------ *)

(* Named rows as a profile or a window returns them: each stream once,
   every count physical, and the steps summing to [steps]. *)
let check_consistent ~steps (rows : Ex.stream_stats list) =
  Alcotest.(check bool) "at least one stream touched" true (rows <> []);
  List.iter
    (fun (s : Ex.stream_stats) ->
      Alcotest.(check bool) "all tallies are non-negative" true
        (s.Ex.e_fwd >= 0 && s.Ex.e_bwd >= 0 && s.Ex.e_seeks >= 0
         && s.Ex.e_seek_steps >= 0 && s.Ex.e_switches >= 0
         && s.Ex.e_hits >= 0 && s.Ex.e_misses >= 0 && s.Ex.e_bits >= 0))
    rows;
  Alcotest.(check int) "the rows' steps sum to the decode steps" steps
    (List.fold_left (fun a s -> a + Ex.steps s) 0 rows);
  let streams = List.map (fun (s : Ex.stream_stats) -> s.Ex.e_stream) rows in
  Alcotest.(check bool) "one row per stream, sorted" true
    (List.sort_uniq compare streams = streams)

(* A forward sweep under a profiling context, as --analyze runs it. *)
let test_explain_control_flow () =
  let w1 = Builder.run_streaming ~program:prog ~input () in
  List.iter
    (fun wet ->
      let sess = W.open_session wet in
      let scope =
        Qprof.make_scope ~tally:(W.Session.tally sess)
          ~recorder:(W.Session.recorder sess) ()
      in
      let blocks, p =
        Qprof.profiled ~scope "trace/cf" (fun () ->
            Query.Session.control_flow sess Query.Forward ~f:(fun _ _ -> ()))
      in
      Alcotest.(check (list string)) "control_flow noted as the query"
        [ "query.control_flow" ] p.Qprof.p_queries;
      check_consistent ~steps:(Qprof.decode_steps p.Qprof.p_total)
        p.Qprof.p_streams;
      Alcotest.(check int) "block executions regenerated"
        wet.W.stats.W.block_execs blocks;
      let ts_fwd, other =
        List.fold_left
          (fun (fwd, other) (s : Ex.stream_stats) ->
            match s.Ex.e_stream with
            | Ex.Ts _ -> (fwd + s.Ex.e_fwd, other)
            | _ -> (fwd, other + 1))
          (0, 0) p.Qprof.p_streams
      in
      Alcotest.(check int)
        "a forward sweep pays exactly one forward ts step per path execution"
        wet.W.stats.W.path_execs ts_fwd;
      Alcotest.(check int) "and touches only ts streams" 0 other;
      Alcotest.(check int) "and never steps backward" 0
        p.Qprof.p_total.Qprof.c_bwd)
    [ w1; Builder.pack w1 ]

(* A slice read through a bare ledger window, with the session's
   recorder armed by hand. *)
let test_explain_slice () =
  let wet = Builder.(pack (run_streaming ~program:prog ~input ())) in
  let sess = W.open_session wet in
  let tally = W.Session.tally sess and recorder = W.Session.recorder sess in
  (* slice an output so the dependence cone is non-trivial *)
  let c =
    match
      Query.copies_matching wet (function
        | Wet_ir.Instr.Output _ -> true
        | _ -> false)
    with
    | [] -> Alcotest.fail "workload has no outputs"
    | c :: _ -> c
  in
  let g0 = Telemetry.snapshot ~tally () in
  let w = Telemetry.open_window tally in
  Ex.arm ~recorder;
  ignore (Slice.Session.backward sess c ((W.node_of_copy wet c).W.n_nexec - 1));
  Ex.disarm ~recorder;
  let rows = Ex.stats_of_rows (Telemetry.window_rows w) in
  Telemetry.close_window w;
  Alcotest.(check (list string)) "slice.backward noted as the query"
    [ "slice.backward" ]
    (Ex.queries_since ~recorder 0);
  check_consistent
    ~steps:
      (Telemetry.steps
         (Telemetry.delta ~before:g0 ~after:(Telemetry.snapshot ~tally ())))
    rows;
  Alcotest.(check bool) "a dependence walk touches edge-label streams" true
    (List.exists
       (fun (s : Ex.stream_stats) ->
         match s.Ex.e_stream with
         | Ex.Label_src _ | Ex.Label_dst _ -> true
         | _ -> false)
       rows);
  (* disarmed queries note nothing *)
  ignore (Query.Session.load_values sess ~f:(fun _ _ -> ()));
  Alcotest.(check int) "disarmed queries note no entry point" 1
    (Ex.query_count ~recorder)

(* The reference recorder: the earlier explain implementation, which
   kept its own tallies per stream in a polymorphic [Hashtbl] and sorted
   its report with [compare], told here what each cursor call did. The
   ledger, which the same calls count into, must report the same rows
   over the same windows, field for field and in the same order. *)
module Ref_recorder = struct
  type stats = {
    st_stream : Ex.stream;
    mutable st_fwd : int;
    mutable st_bwd : int;
    mutable st_seeks : int;
    mutable st_seek_steps : int;
    mutable st_switches : int;
  }

  type t = {
    armed : bool ref;
    tbl : (Ex.stream, stats) Hashtbl.t;
    mutable queries : string list;
  }

  let make () = { armed = ref false; tbl = Hashtbl.create 256; queries = [] }

  let reset r =
    Hashtbl.reset r.tbl;
    r.queries <- []

  let arm r =
    reset r;
    r.armed := true

  let disarm r = r.armed := false

  let query r name = if !(r.armed) then r.queries <- name :: r.queries

  let stats_of r s =
    match Hashtbl.find_opt r.tbl s with
    | Some st -> st
    | None ->
      let st =
        {
          st_stream = s;
          st_fwd = 0;
          st_bwd = 0;
          st_seeks = 0;
          st_seek_steps = 0;
          st_switches = 0;
        }
      in
      Hashtbl.replace r.tbl s st;
      st

  (* [n] steps in one direction; [switched]: the first of them turned
     its cursor around. *)
  let steps r s ~fwd ~switched n =
    if !(r.armed) && n > 0 then begin
      let st = stats_of r s in
      if fwd then st.st_fwd <- st.st_fwd + n else st.st_bwd <- st.st_bwd + n;
      if switched then st.st_switches <- st.st_switches + 1
    end

  let seek r s n =
    if !(r.armed) then begin
      let st = stats_of r s in
      st.st_seeks <- st.st_seeks + 1;
      st.st_seek_steps <- st.st_seek_steps + n
    end

  let report r =
    let streams =
      Hashtbl.fold (fun _ st acc -> st :: acc) r.tbl []
      |> List.sort (fun a b -> compare a.st_stream b.st_stream)
      |> List.map (fun st ->
             ( st.st_stream, st.st_fwd, st.st_bwd, st.st_seeks,
               st.st_seek_steps, st.st_switches ))
    in
    (List.rev r.queries, streams)
end

(* The ledger side of the comparison: a recorder and the window an Arm
   opens, whose rows a Disarm keeps after closing it. *)
type ledger_view = {
  lv_tally : Telemetry.tally;
  lv_recorder : Ex.recorder;
  mutable lv_window : Telemetry.window option;  (* Some while armed *)
  mutable lv_closed : Ex.stream_stats list;  (* the last window's rows *)
}

let ledger_arm v =
  Option.iter Telemetry.close_window v.lv_window;
  v.lv_window <- Some (Telemetry.open_window v.lv_tally);
  v.lv_closed <- [];
  Ex.arm ~recorder:v.lv_recorder

let ledger_disarm v =
  Option.iter
    (fun w ->
      v.lv_closed <- Ex.stats_of_rows (Telemetry.window_rows w);
      Telemetry.close_window w)
    v.lv_window;
  v.lv_window <- None;
  Ex.disarm ~recorder:v.lv_recorder

(* Clear what was recorded, armed or not. *)
let ledger_reset v =
  let armed = Option.is_some v.lv_window in
  ledger_arm v;
  if not armed then ledger_disarm v

(* What the ledger reports, in the reference's shape: the open window's
   rows while armed, the closed window's after. *)
let ledger_report v =
  ( Ex.queries_since ~recorder:v.lv_recorder 0,
    List.map
      (fun (s : Ex.stream_stats) ->
        ( s.Ex.e_stream, s.Ex.e_fwd, s.Ex.e_bwd, s.Ex.e_seeks,
          s.Ex.e_seek_steps, s.Ex.e_switches ))
      (match v.lv_window with
       | Some w -> Ex.stats_of_rows (Telemetry.window_rows w)
       | None -> v.lv_closed) )

(* The cursors a script drives: raw and packed streams, ascending and
   not, named over every stream kind. *)
let ex_streams =
  let asc = Array.init 300 (fun i -> 3 * i) in
  let wavy = Array.init 300 (fun i -> [| 5; 1; 4; 1; 5; 9; 2; 6 |].(i mod 8) + i / 40) in
  [|
    (Ex.Ts 3, Stream.compress_with `Raw asc, true);
    (Ex.Ts 1, Stream.compress_with (`Bidir (Wet_bistream.Bidir.Last_stride, 2)) asc, true);
    (Ex.Uvals 7, Stream.compress_with (`Bidir (Wet_bistream.Bidir.Fcm, 1)) wavy, false);
    (Ex.Uvals 9, Stream.compress_with `Raw wavy, false);
    (Ex.Pattern (2, 1), Stream.compress_with (`Bidir (Wet_bistream.Bidir.Dfcm, 2)) wavy, false);
    (Ex.Label_src 4, Stream.compress_with (`Bidir (Wet_bistream.Bidir.Last_n, 4)) wavy, false);
    (Ex.Label_dst 4, Stream.compress_with (`Bidir (Wet_bistream.Bidir.Fcm, 2)) asc, true);
  |]

type ex_op =
  | Arm
  | Disarm
  | Reset
  | Query of string
  | Step of int * bool  (** cursor, forward *)
  | Seek of int * int
  | Read of int * int
  | Find of int * int
  | Peek of int
  | Report

let gen_ex_script =
  let open QCheck.Gen in
  let cur = int_bound (Array.length ex_streams - 1) in
  let pos = frequency [ (3, int_bound 40); (2, int_bound 300) ] in
  let op =
    frequency
      [
        (1, return Arm);
        (1, return Disarm);
        (1, return Reset);
        (1, map (fun q -> Query q) (oneofl [ "query.a"; "query.b" ]));
        (8, map2 (fun c f -> Step (c, f)) cur bool);
        (3, map2 (fun c k -> Seek (c, k)) cur pos);
        (3, map2 (fun c k -> Read (c, k)) cur pos);
        (2, map2 (fun c v -> Find (c, v)) cur (int_bound 900));
        (1, map (fun c -> Peek c) cur);
        (2, return Report);
      ]
  in
  list_size (int_range 0 300) op

let print_ex_op = function
  | Arm -> "arm"
  | Disarm -> "disarm"
  | Reset -> "reset"
  | Query q -> "query " ^ q
  | Step (c, f) -> Printf.sprintf "step %d %s" c (if f then "fwd" else "bwd")
  | Seek (c, k) -> Printf.sprintf "seek %d %d" c k
  | Read (c, k) -> Printf.sprintf "read %d %d" c k
  | Find (c, v) -> Printf.sprintf "find %d %d" c v
  | Peek c -> Printf.sprintf "peek %d" c
  | Report -> "report"

(* Runs a script of cursor calls against the ledger, telling the
   reference what each did, and compares every report and the final
   one. The reference learns a seek's steps from its cursor's position
   and from the count a seek returns (a read's from the ledger total),
   and tracks each cursor's last direction itself. *)
let prop_explain_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"dense recorder reports equal the Hashtbl reference"
    (QCheck.make gen_ex_script
       ~print:(fun ops -> String.concat "; " (List.map print_ex_op ops)))
    (fun ops ->
      let tally = Telemetry.make () in
      let view =
        {
          lv_tally = tally;
          lv_recorder = Ex.make_recorder ();
          lv_window = None;
          lv_closed = [];
        }
      in
      let reference = Ref_recorder.make () in
      let curs =
        Array.map
          (fun (name, body, _) ->
            Stream.Cursor.make ~tally ~label:(Ex.label name) body)
          ex_streams
      in
      let last = Array.make (Array.length curs) 0 in
      let name i = let n, _, _ = ex_streams.(i) in n in
      let packed i =
        let _, body, _ = ex_streams.(i) in
        Stream.method_name body <> "raw"
      in
      let moved i ~fwd n =
        if n > 0 then begin
          let dir = if fwd then 1 else 2 in
          Ref_recorder.steps reference (name i) ~fwd
            ~switched:(last.(i) <> 0 && last.(i) <> dir) n;
          last.(i) <- dir
        end
      in
      (* A seek from [p] to [k] that took [d] steps: forward to the
         right; to the left, backward unless it rewound and stepped
         forward from 0. *)
      let sought i p k d =
        moved i ~fwd:(k > p || d <> p - k) d;
        Ref_recorder.seek reference (name i) d
      in
      let same what =
        let d = ledger_report view and r = Ref_recorder.report reference in
        if d <> r then
          QCheck.Test.fail_reportf "%s differs: %d vs %d streams" what
            (List.length (snd d)) (List.length (snd r))
      in
      List.iter
        (function
          | Arm ->
            ledger_arm view;
            Ref_recorder.arm reference
          | Disarm ->
            ledger_disarm view;
            Ref_recorder.disarm reference
          | Reset ->
            ledger_reset view;
            Ref_recorder.reset reference
          | Query q ->
            Ex.query ~recorder:view.lv_recorder q;
            Ref_recorder.query reference q
          | Step (i, fwd) ->
            let c = curs.(i) in
            let p = Stream.Cursor.pos c in
            if fwd && p < Stream.Cursor.length c then begin
              ignore (Stream.Cursor.step_forward c);
              moved i ~fwd:true 1
            end
            else if (not fwd) && p > 0 then begin
              ignore (Stream.Cursor.step_backward c);
              moved i ~fwd:false 1
            end
          | Seek (i, k) ->
            let c = curs.(i) in
            let k = min k (Stream.Cursor.length c) in
            let p = Stream.Cursor.pos c in
            sought i p k (Stream.Cursor.seek_steps c k)
          | Read (i, k) ->
            let c = curs.(i) in
            let k = min k (Stream.Cursor.length c - 1) in
            let p = Stream.Cursor.pos c in
            let s0 = (Telemetry.snapshot ~tally ()).Telemetry.g_seek_steps in
            ignore (Stream.Cursor.read_at c k);
            sought i p k
              ((Telemetry.snapshot ~tally ()).Telemetry.g_seek_steps - s0);
            moved i ~fwd:true 1
          | Find (i, v) ->
            let _, _, ascending = ex_streams.(i) in
            if ascending then begin
              let c = curs.(i) in
              let p = Stream.Cursor.pos c in
              ignore (Stream.Cursor.find_ascending c v);
              let q = Stream.Cursor.pos c in
              let d = if packed i then abs (q - p) else 0 in
              moved i ~fwd:(q > p) d;
              Ref_recorder.seek reference (name i) d
            end
          | Peek i ->
            let c = curs.(i) in
            if Stream.Cursor.pos c < Stream.Cursor.length c then
              ignore (Stream.Cursor.peek_forward c)
          | Report -> same "report")
        ops;
      same "final report";
      true)

(* A counted step allocates nothing: 100,000 cursor calls inside an
   open window, over streams of every kind that have already moved —
   steps both ways, seeks and reads — leave the minor heap's allocation
   count unmoved, and land on those streams' rows. *)
let test_explain_step_allocates_nothing () =
  let tally = Telemetry.make () in
  let w = Telemetry.open_window tally in
  let names =
    List.concat_map
      (fun i ->
        [ Ex.Ts i; Ex.Uvals i; Ex.Pattern (i, i mod 3); Ex.Label_src i;
          Ex.Label_dst i ])
      (List.init 20 Fun.id)
  in
  let data = Array.init 64 (fun i -> 7 * i) in
  let curs =
    Array.of_list
      (List.mapi
         (fun j name ->
           let body =
             if j mod 2 = 0 then Stream.compress_with `Raw data
             else
               Stream.compress_with
                 (`Bidir (Wet_bistream.Bidir.Last_stride, 1)) data
           in
           Stream.Cursor.make ~tally ~label:(Ex.label name) body)
         names)
  in
  let n = Array.length curs in
  let call i =
    let c = curs.(i mod n) in
    match i / n mod 4 with
    | 0 ->
      if Stream.Cursor.pos c < 64 then ignore (Stream.Cursor.step_forward c)
    | 1 -> if Stream.Cursor.pos c > 0 then ignore (Stream.Cursor.step_backward c)
    | 2 -> Stream.Cursor.seek c (i land 31)
    | _ -> ignore (Stream.Cursor.read_at c (i land 63))
  in
  for i = 0 to 8 * n - 1 do
    call i
  done;
  let before = Gc.minor_words () in
  for i = 0 to 99_999 do
    call i
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words allocated by 100,000 calls" 0.
    (after -. before);
  Alcotest.(check int) "on the streams touched before" n
    (List.length (Telemetry.window_rows w))

let () =
  Alcotest.run "watch"
    [
      ( "spec",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "worked examples" `Quick test_parse_cases;
          Alcotest.test_case "rejections" `Quick test_parse_errors;
        ] );
      ( "filter",
        [
          QCheck_alcotest.to_alcotest prop_matches_reference;
          Alcotest.test_case "kind masks" `Quick test_kind_mask;
          Alcotest.test_case "unknown function" `Quick test_unknown_function;
        ] );
      ( "ring",
        [ Alcotest.test_case "wraparound" `Quick test_ring_wraparound ] );
      ( "probes",
        [
          Alcotest.test_case "count and sample" `Quick test_sampling;
          Alcotest.test_case "watchpoint locates" `Quick
            test_watchpoint_locates;
        ] );
      ( "explain",
        [
          Alcotest.test_case "forward control flow" `Quick
            test_explain_control_flow;
          Alcotest.test_case "backward slice" `Quick test_explain_slice;
          QCheck_alcotest.to_alcotest prop_explain_matches_reference;
          Alcotest.test_case "a step allocates nothing" `Quick
            test_explain_step_allocates_nothing;
        ] );
    ]
