(* The wet_qprof attribution invariants: per-query cost totals are
   non-negative and sum exactly to the session tally's delta across
   random query interleavings on both tiers (the snapshot-delta
   telescoping the subsystem is built on); contexts are flat, so one
   started inside another is refused and the [qprof.*] metrics move by
   exactly the profiles' totals; qlog entries
   round-trip through their JSONL encoding; the planner's exact
   [Query.estimate] agrees with the profiled rows; the [--analyze]
   tables sum to the profile they print; and with no context open the
   profiler arms nothing and records nothing. *)

module Qprof = Wet_qprof.Qprof
module Qlog = Wet_qprof.Qlog
module Telemetry = Wet_bistream.Telemetry
module Ex = Wet_watch.Explain
module Metrics = Wet_obs.Metrics
module Json = Wet_insight.Json
module Wl = Wet_workloads.Spec
module Builder = Wet_core.Builder
module W = Wet_core.Wet
module Query = Wet_core.Query
module Slice = Wet_core.Slice

(* One real workload, both tiers, built once. *)
let build name ~scale =
  let w = Wl.find name in
  Builder.run_streaming ~program:(Wl.compile w) ~input:(Wl.input w ~scale) ()

let w1 = lazy (build "parser" ~scale:1)

let w2 = lazy (Builder.pack (Lazy.force w1))

let wet_of_tier tier2 = if tier2 then Lazy.force w2 else Lazy.force w1

(* parser at scale 1 packs no stream at all; gcc at scale 4 packs about
   a fifth of its streams (last-n and last-stride), so its tier-2 WET
   walks packed and raw streams side by side. *)
let g1 = lazy (build "gcc" ~scale:4)

let g2 = lazy (Builder.pack (Lazy.force g1))

(* A fresh session on [wet] and a profiling scope over its tally and
   recorder, as [wet serve] builds per connection. *)
let open_scoped wet =
  let s = W.open_session wet in
  ( s,
    Qprof.make_scope ~tally:(W.Session.tally s)
      ~recorder:(W.Session.recorder s) () )

(* Observations and summed wall of every [qprof.latency.<shape>]
   histogram whose shape [keep] accepts. *)
let latency ?(keep = fun _ -> true) () =
  List.fold_left
    (fun (n, sum) (name, r) ->
      match r with
      | Metrics.Histogram h
        when String.starts_with ~prefix:"qprof.latency." name
             && keep (String.sub name 14 (String.length name - 14)) ->
        (n + h.Metrics.h_count, sum + h.Metrics.h_sum)
      | _ -> (n, sum))
    (0, 0) (Metrics.snapshot ())

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* A query-op language for random interleavings                        *)
(* ------------------------------------------------------------------ *)

type op = Cf | Vals | Addrs | At of int | Sl | Pack

let shape_of = function
  | Cf -> "trace/cf"
  | Vals -> "trace/values"
  | Addrs -> "trace/addresses"
  | At _ -> "at"
  | Sl -> "slice/backward"
  | Pack -> "pack"

let run_op s op =
  let wet = W.Session.wet s in
  match op with
  | Cf ->
    Query.Session.park s Query.Forward;
    ignore (Query.Session.control_flow s Query.Forward ~f:(fun _ _ -> ()))
  | Vals -> ignore (Query.Session.load_values s ~f:(fun _ _ -> ()))
  | Addrs -> ignore (Query.Session.addresses s ~f:(fun _ _ -> ()))
  | At seed ->
    let total = wet.W.stats.W.path_execs in
    let ts = 1 + (seed mod max 1 total) in
    ignore (Query.Session.locate_time s ts);
    ignore
      (Query.Session.control_flow_from s ~start_ts:ts ~steps:3
         ~f:(fun _ _ -> ()))
  | Sl -> (
    match Query.copies_matching wet (fun i -> Wet_ir.Instr.has_def i) with
    | c :: _ ->
      ignore
        (Slice.Session.backward s c ((W.node_of_copy wet c).W.n_nexec - 1))
    | [] -> ())
  (* A build inside a profiled region: packing moves no cursor of the
     session, so it costs the context wall time and allocation but adds
     nothing to its ledger fields. *)
  | Pack -> ignore (Builder.pack (Lazy.force w1))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, return Cf);
        (3, return Vals);
        (3, return Addrs);
        (3, map (fun s -> At s) (int_range 0 10_000));
        (2, return Sl);
        (1, return Pack);
      ])

let gen_plan = QCheck.Gen.(pair bool (list_size (int_range 1 6) gen_op))

let print_plan (tier2, ops) =
  Printf.sprintf "tier2=%b [%s]" tier2
    (String.concat "; " (List.map shape_of ops))

let arb_plan = QCheck.make ~print:print_plan gen_plan

let bi_fields (c : Qprof.cost) =
  ( c.Qprof.c_fwd, c.Qprof.c_bwd, c.Qprof.c_switches, c.Qprof.c_hits,
    c.Qprof.c_misses, c.Qprof.c_bits )

let sum_totals profs =
  List.fold_left
    (fun acc (p : Qprof.profile) -> Qprof.add_cost acc p.Qprof.p_total)
    Qprof.zero_cost profs

(* Disjoint sequential windows telescope: the per-query totals sum to
   exactly the session tally's delta over the whole batch, whatever the
   interleaving and tier. This is the subsystem's acceptance
   invariant. *)
let prop_sum_consistency =
  QCheck.Test.make ~name:"query costs sum to the global telemetry delta"
    ~count:30 arb_plan (fun (tier2, ops) ->
      let s, scope = open_scoped (wet_of_tier tier2) in
      let tally = W.Session.tally s in
      let g0 = Telemetry.snapshot ~tally () in
      let profs =
        List.map
          (fun op ->
            let _, p =
              Qprof.run ~scope (shape_of op) (fun () -> run_op s op)
            in
            p)
          ops
      in
      let d =
        Telemetry.delta ~before:g0 ~after:(Telemetry.snapshot ~tally ())
      in
      bi_fields (sum_totals profs)
      = ( d.Telemetry.g_fwd, d.Telemetry.g_bwd, d.Telemetry.g_switches,
          d.Telemetry.g_hits, d.Telemetry.g_misses, d.Telemetry.g_bits )
      && List.for_all
           (fun (p : Qprof.profile) ->
             Qprof.nonneg_cost p.Qprof.p_total && p.Qprof.p_outcome = "ok")
           profs)

(* Contexts are flat: one started inside another on the same scope is
   refused before it runs anything. The outer context survives with an
   error outcome and its total is the tally's delta, the scope stays
   usable for the next context, and the qprof.* counters and latency
   histograms hold exactly the two profiles that finished. *)
let prop_nesting =
  QCheck.Test.make ~name:"nested contexts telescope and merge once"
    ~count:20 arb_plan (fun (tier2, ops) ->
      let s, scope = open_scoped (wet_of_tier tier2) in
      let tally = W.Session.tally s in
      let evens, odds = List.partition (fun (i, _) -> i mod 2 = 0)
          (List.mapi (fun i op -> (i, op)) ops)
      in
      Wet_obs.Sink.enable ();
      Fun.protect ~finally:Wet_obs.Sink.disable @@ fun () ->
      Metrics.reset ();
      let g0 = Telemetry.snapshot ~tally () in
      let inner_ran = ref false in
      let res, outer =
        Qprof.run ~scope "outer" (fun () ->
            List.iter (fun (_, op) -> run_op s op) evens;
            Qprof.run ~scope "inner" (fun () -> inner_ran := true))
      in
      let d =
        Telemetry.delta ~before:g0 ~after:(Telemetry.snapshot ~tally ())
      in
      let _, next =
        Qprof.run ~scope "next" (fun () ->
            List.iter (fun (_, op) -> run_op s op) odds)
      in
      let both = Qprof.add_cost outer.Qprof.p_total next.Qprof.p_total in
      (match res with Error (Invalid_argument _) -> true | _ -> false)
      && (not !inner_ran)
      && String.starts_with ~prefix:"error: Invalid_argument"
           outer.Qprof.p_outcome
      && bi_fields outer.Qprof.p_total
         = ( d.Telemetry.g_fwd, d.Telemetry.g_bwd, d.Telemetry.g_switches,
             d.Telemetry.g_hits, d.Telemetry.g_misses, d.Telemetry.g_bits )
      && next.Qprof.p_outcome = "ok"
      && (not (Ex.recording (W.Session.recorder s)))
      && Metrics.value (Metrics.counter "qprof.fwd_steps") = both.Qprof.c_fwd
      && Metrics.value (Metrics.counter "qprof.bits_touched")
         = both.Qprof.c_bits
      && latency ~keep:(( = ) "outer") ()
         = (1, outer.Qprof.p_total.Qprof.c_wall_ns)
      && latency ~keep:(( = ) "inner") () = (0, 0)
      && latency ~keep:(( = ) "next") ()
         = (1, next.Qprof.p_total.Qprof.c_wall_ns))

(* ------------------------------------------------------------------ *)
(* One ledger, many views                                              *)
(* ------------------------------------------------------------------ *)

(* Session queries over every kind of stream walk. *)
type rq =
  | Cf_fwd
  | Cf_bwd
  | Loads
  | Addresses
  | Locate of int
  | Value of int
  | Dep of int
  | Stamp of int
  | Back of int
  | Forth of int
  | Chop of int

type act = Open | Close | Q of rq

let print_rq = function
  | Cf_fwd -> "cf-fwd"
  | Cf_bwd -> "cf-bwd"
  | Loads -> "loads"
  | Addresses -> "addresses"
  | Locate n -> Printf.sprintf "locate %d" n
  | Value n -> Printf.sprintf "value %d" n
  | Dep n -> Printf.sprintf "dep %d" n
  | Stamp n -> Printf.sprintf "stamp %d" n
  | Back n -> Printf.sprintf "back %d" n
  | Forth n -> Printf.sprintf "forth %d" n
  | Chop n -> Printf.sprintf "chop %d" n

let gen_rq =
  QCheck.Gen.(
    let seed = int_bound 100_000 in
    frequency
      [
        (2, return Cf_fwd);
        (2, return Cf_bwd);
        (1, return Loads);
        (1, return Addresses);
        (2, map (fun n -> Locate n) seed);
        (3, map (fun n -> Value n) seed);
        (3, map (fun n -> Dep n) seed);
        (2, map (fun n -> Stamp n) seed);
        (1, map (fun n -> Back n) seed);
        (1, map (fun n -> Forth n) seed);
        (1, map (fun n -> Chop n) seed);
      ])

(* (tier2, sessions, (session, action) script) *)
let gen_views =
  QCheck.Gen.(
    triple bool (int_range 1 3)
      (list_size (int_range 1 25)
         (pair (int_bound 2)
            (frequency
               [ (1, return Open); (1, return Close); (5, map (fun q -> Q q) gen_rq) ]))))

let print_views (tier2, n, script) =
  Printf.sprintf "tier2=%b sessions=%d [%s]" tier2 n
    (String.concat "; "
       (List.map
          (fun (i, a) ->
            Printf.sprintf "%d:%s" i
              (match a with
               | Open -> "open"
               | Close -> "close"
               | Q q -> print_rq q))
          script))

let nth_of l seed = List.nth l (seed mod List.length l)

let run_rq s = function
  | Cf_fwd ->
    Query.Session.park s Query.Forward;
    ignore (Query.Session.control_flow s Query.Forward ~f:(fun _ _ -> ()))
  | Cf_bwd ->
    Query.Session.park s Query.Backward;
    ignore (Query.Session.control_flow s Query.Backward ~f:(fun _ _ -> ()))
  | Loads -> ignore (Query.Session.load_values s ~f:(fun _ _ -> ()))
  | Addresses -> ignore (Query.Session.addresses s ~f:(fun _ _ -> ()))
  | Locate n ->
    let total = (W.Session.wet s).W.stats.W.path_execs in
    ignore (Query.Session.locate_time s (1 + (n mod total)))
  | Value n | Dep n | Stamp n | Back n | Forth n | Chop n as q -> (
    let wet = W.Session.wet s in
    let inst c = n mod (W.node_of_copy wet c).W.n_nexec in
    let defs = List.filter (fun c -> wet.W.copy_uvals.(c) <> None)
        (List.init (W.num_copies wet) Fun.id) in
    let c = nth_of defs n in
    match q with
    | Value _ -> ignore (W.Session.value_of_copy s c (inst c))
    | Dep _ ->
      let c =
        nth_of
          (List.filter
             (fun c -> Array.length wet.W.copy_deps.(c) > 0)
             (List.init (W.num_copies wet) Fun.id))
          n
      in
      ignore
        (W.Session.resolve_dep s c (inst c)
           (n mod Array.length wet.W.copy_deps.(c)))
    | Stamp _ -> ignore (W.Session.timestamp s c (inst c))
    | Back _ -> ignore (Slice.Session.backward ~max_instances:200 s c (inst c))
    | Forth _ -> ignore (Slice.Session.forward ~max_instances:200 s c (inst c))
    | _ ->
      let k = nth_of defs (n / 7) in
      ignore
        (Slice.Session.chop ~max_instances:200 s ~source:(c, inst c)
           ~sink:(k, inst k)))

(* The ledger fields of a cost, of a tally delta and of a set of rows. *)
let cost_ledger (c : Qprof.cost) =
  [ c.Qprof.c_fwd; c.Qprof.c_bwd; c.Qprof.c_switches; c.Qprof.c_hits;
    c.Qprof.c_misses; c.Qprof.c_bits; c.Qprof.c_seeks; c.Qprof.c_seek_steps ]

let delta_ledger (d : Telemetry.snapshot) =
  [ d.Telemetry.g_fwd; d.Telemetry.g_bwd; d.Telemetry.g_switches;
    d.Telemetry.g_hits; d.Telemetry.g_misses; d.Telemetry.g_bits;
    d.Telemetry.g_seeks; d.Telemetry.g_seek_steps ]

let rows_ledger rows =
  List.fold_left
    (fun acc (s : Ex.stream_stats) ->
      List.map2 ( + ) acc
        [ s.Ex.e_fwd; s.Ex.e_bwd; s.Ex.e_switches; s.Ex.e_hits;
          s.Ex.e_misses; s.Ex.e_bits; s.Ex.e_seeks; s.Ex.e_seek_steps ])
    [ 0; 0; 0; 0; 0; 0; 0; 0 ] rows

(* Random session queries on one to three sessions, in sequential
   profiling contexts: a session's Open starts a context on its scope
   (finishing the one it has open first) and its Close finishes it.
   Contexts of different sessions interleave: one stays open while
   others open and close inside it, and, since a context is a closure,
   finishing one also finishes the contexts opened after it. Every view
   of the ledger agrees with every other: each context's rows sum to
   its cost, its cost is its session tally's delta across it, and each
   qprof.* counter moves by the sum of the contexts' costs. *)
let prop_views_reconcile =
  QCheck.Test.make ~name:"every view of the ledger reconciles" ~count:40
    (QCheck.make ~print:print_views gen_views)
    (fun (tier2, nsess, script) ->
      let wet = Lazy.force (if tier2 then g2 else g1) in
      Wet_obs.Sink.enable ();
      Fun.protect ~finally:Wet_obs.Sink.disable @@ fun () ->
      Metrics.reset ();
      let sessions = Array.init nsess (fun _ -> open_scoped wet) in
      let ok = ref true and profiles = ref [] in
      (* Run [script] until an Open or a Close asks a session in
         [opened] to finish its context; return the rest of the script
         and that session. *)
      let rec exec opened script =
        match script with
        | [] -> ([], None)
        | (i, a) :: rest -> (
          let i = i mod nsess in
          let s, scope = sessions.(i) in
          match a with
          | Q q ->
            run_rq s q;
            exec opened rest
          | (Open | Close) when List.mem i opened ->
            ((if a = Close then rest else script), Some i)
          | Close -> exec opened rest
          | Open -> (
            let tally = W.Session.tally s in
            let g0 = Telemetry.snapshot ~tally () in
            let (rest, closing), p =
              Qprof.profiled ~scope "ctx" (fun () -> exec (i :: opened) rest)
            in
            let d =
              Telemetry.delta ~before:g0 ~after:(Telemetry.snapshot ~tally ())
            in
            if rows_ledger p.Qprof.p_streams <> cost_ledger p.Qprof.p_total
               || cost_ledger p.Qprof.p_total <> delta_ledger d
               || Ex.recording (W.Session.recorder s)
            then ok := false;
            profiles := p :: !profiles;
            match closing with
            | Some j when j = i -> exec opened rest
            | _ -> (rest, closing)))
      in
      ignore (exec [] script);
      let counter name = Metrics.value (Metrics.counter name) in
      let sum f =
        List.fold_left (fun a (p : Qprof.profile) -> a + f p.Qprof.p_total)
          0 !profiles
      in
      List.iter
        (fun (suffix, f) ->
          if counter ("qprof." ^ suffix) <> sum f then ok := false)
        [
          ("fwd_steps", fun c -> c.Qprof.c_fwd);
          ("bwd_steps", fun c -> c.Qprof.c_bwd);
          ("dir_switches", fun c -> c.Qprof.c_switches);
          ("seeks", fun c -> c.Qprof.c_seeks);
          ("seek_steps", fun c -> c.Qprof.c_seek_steps);
        ];
      !ok && fst (latency ~keep:(( = ) "ctx") ()) = List.length !profiles)

(* ------------------------------------------------------------------ *)
(* qlog round trip                                                     *)
(* ------------------------------------------------------------------ *)

let gen_cost =
  QCheck.Gen.(
    map
      (fun l ->
        match l with
        | [ a; b; c; d; e; f; g; h; i; j ] ->
          {
            Qprof.c_fwd = a;
            c_bwd = b;
            c_switches = c;
            c_hits = d;
            c_misses = e;
            c_bits = f;
            c_seeks = g;
            c_seek_steps = h;
            c_wall_ns = i;
            c_alloc_words = j;
          }
        | _ -> assert false)
      (list_repeat 10 (int_range 0 1_000_000_000)))

let gen_entry =
  QCheck.Gen.(
    let word = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    map
      (fun (((shape, params), cost), ((streams, queries), outcome)) ->
        {
          Qlog.e_shape = shape;
          e_params = params;
          e_cost = cost;
          e_streams = streams;
          e_queries = queries;
          e_outcome = outcome;
        })
      (pair
         (pair
            (pair
               (oneofl
                  [
                    "trace/cf"; "trace/values"; "slice/backward"; "at";
                    "paths"; "bench/sweep";
                  ])
               (list_size (int_range 0 3) (pair word word)))
            gen_cost)
         (pair
            (pair (int_range 0 500) (list_size (int_range 0 3) word))
            (oneofl [ "ok"; "error: Not_found" ]))))

let arb_entry =
  QCheck.make
    ~print:(fun e -> Json.to_string (Qlog.to_json e))
    gen_entry

let prop_qlog_roundtrip =
  QCheck.Test.make ~name:"qlog entries round-trip through JSONL" ~count:300
    arb_entry (fun e ->
      Qlog.parse_line (Json.to_string (Qlog.to_json e)) = Ok e)

let test_qlog_file () =
  let path = Filename.temp_file "wet_qlog" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let s, scope = open_scoped (Lazy.force w2) in
  let _, p1 =
    Qprof.run ~scope ~params:[ ("kind", "cf") ] "trace/cf" (fun () ->
        run_op s Cf)
  in
  let _, p2 = Qprof.run ~scope "trace/values" (fun () -> run_op s Vals) in
  Qlog.append path p1;
  Qlog.append path p2;
  (match Qlog.load path with
   | Error m -> Alcotest.fail m
   | Ok entries ->
     Alcotest.(check int) "two lines" 2 (List.length entries);
     Alcotest.(check bool) "first entry matches its profile" true
       (List.nth entries 0 = Qlog.entry_of_profile p1);
     let sums = Qlog.summarize entries in
     Alcotest.(check int) "two shapes" 2 (List.length sums);
     let hottest = List.nth sums 0 and other = List.nth sums 1 in
     Alcotest.(check bool) "hottest shape first" true
       (hottest.Qlog.s_wall_total_ns >= other.Qlog.s_wall_total_ns));
  (* the first malformed line poisons the load, with its line number *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc "{\"schema\":\"wet-qlog/9\"}\n";
  close_out oc;
  match Qlog.load path with
  | Ok _ -> Alcotest.fail "expected malformed-line error"
  | Error m ->
    Alcotest.(check bool)
      (Printf.sprintf "error cites line 3: %s" m)
      true
      (has_sub m ":3:")

(* ------------------------------------------------------------------ *)
(* Estimated vs actual                                                 *)
(* ------------------------------------------------------------------ *)

(* The control-flow planner model is exact on both tiers: one forward
   timestamp step per path execution, no seeks from a parked start. *)
let test_estimate_cf () =
  List.iter
    (fun tier2 ->
      let wet = wet_of_tier tier2 in
      let s, scope = open_scoped wet in
      let _, p =
        Qprof.run ~scope "trace/cf" (fun () ->
            ignore
              (Query.Session.control_flow s Query.Forward ~f:(fun _ _ -> ())))
      in
      match Query.estimate wet "trace/cf" with
      | [ e ] ->
        Alcotest.(check string) "class" "ts" e.Query.est_kind;
        Alcotest.(check bool) "exact" true e.Query.est_exact;
        let actual =
          List.fold_left
            (fun acc (s : Ex.stream_stats) ->
              if Ex.stream_kind s.Ex.e_stream = "ts" then acc + Ex.steps s
              else acc)
            0 p.Qprof.p_streams
        in
        Alcotest.(check int)
          (Printf.sprintf "estimate = recording (tier2=%b)" tier2)
          e.Query.est_steps actual
      | ests ->
        Alcotest.fail
          (Printf.sprintf "expected one ts estimate, got %d"
             (List.length ests)))
    [ false; true ]

(* Inexact estimates still name the classes the query actually lands
   on. *)
let test_estimate_classes () =
  let wet = Lazy.force w2 in
  let s, scope = open_scoped wet in
  let check_shape shape op =
    let _, p = Qprof.run ~scope shape (fun () -> run_op s op) in
    let touched =
      List.map (fun (s : Ex.stream_stats) -> Ex.stream_kind s.Ex.e_stream)
        p.Qprof.p_streams
    in
    List.iter
      (fun (e : Query.class_estimate) ->
        if e.Query.est_steps > 0 then
          Alcotest.(check bool)
            (Printf.sprintf "%s: estimated class %s was touched" shape
               e.Query.est_kind)
            true
            (List.mem e.Query.est_kind touched))
      (Query.estimate wet shape)
  in
  check_shape "trace/values" Vals;
  (* what [at] and a slice read depends on where the timestamp or the
     dependences land, so neither has a model and --analyze prints their
     classes "unplanned" *)
  List.iter
    (fun shape ->
      Alcotest.(check int) (shape ^ " estimates nothing") 0
        (List.length (Query.estimate wet shape)))
    [ "at"; "slice/backward"; "slice/forward"; "slice/chop" ]

(* ------------------------------------------------------------------ *)
(* Hints read the ledger                                               *)
(* ------------------------------------------------------------------ *)

module Render = Wet_serve.Render

(* The whole numbers a line quotes: its words, stripped of brackets
   and commas, that are digits only ("O(1)" is not a figure). *)
let ints_of line =
  String.split_on_char ' ' line
  |> List.filter_map (fun w ->
         let is_punct c = c = '(' || c = ')' || c = ',' in
         let n = String.length w in
         let i = ref 0 and j = ref n in
         while !i < n && is_punct w.[!i] do incr i done;
         while !j > !i && is_punct w.[!j - 1] do decr j done;
         let core = String.sub w !i (!j - !i) in
         if core <> "" && String.for_all (fun c -> c >= '0' && c <= '9') core
         then int_of_string_opt core
         else None)

(* The rows of the --analyze table whose title starts with [title]:
   the lines after its header and rule, up to the blank line that ends
   it. *)
let table_rows title lines =
  let rec from = function
    | l :: _ :: _ :: rest when String.starts_with ~prefix:title l -> upto rest
    | _ :: rest -> from rest
    | [] -> []
  and upto = function "" :: _ | [] -> [] | l :: rest -> l :: upto rest in
  from lines

(* The nine programs at a 64th of their timing scale, on both tiers. *)
let nine =
  lazy
    (List.concat_map
       (fun (spec : Wl.t) ->
         let scale = max 1 (spec.Wl.timing_scale / 64) in
         let w1 =
           Builder.run_streaming ~program:(Wl.compile spec)
             ~input:(Wl.input spec ~scale) ()
         in
         [ (spec, "tier-1", w1); (spec, "tier-2", Builder.pack w1) ])
       Wl.all)

(* The five query shapes the CLI profiles, run through [Render] on a
   session. *)
let render_shapes s =
  [
    ("trace/cf", fun () -> ignore (Render.trace s ~kind:Render.Cf ~limit:16));
    ("trace/values", fun () ->
        ignore (Render.trace s ~kind:Render.Values ~limit:16));
    ("trace/addresses", fun () ->
        ignore (Render.trace s ~kind:Render.Addresses ~limit:16));
    ("slice/backward", fun () -> ignore (Render.slice s ~output:None));
    ("at", fun () -> ignore (Render.at s ~ts:None));
  ]

(* Over the nine programs on both tiers, every --analyze hint quotes
   only figures its own cost table prints (not the per-class or busiest
   tables, whose many figures would let any hint pass), and a tier-1
   value or address trace, whose raw seeks take no step, never advises
   batching seeks. *)
let test_hints_quote_the_table () =
  List.iter
    (fun ((spec : Wl.t), tier, wet) ->
      let s, scope = open_scoped wet in
      List.iter
        (fun (shape, run) ->
          let _, p = Qprof.run ~scope shape run in
          let lines = Render.analyze wet p in
          let hints =
            List.filter (String.starts_with ~prefix:"hint: ") lines
          in
          let figures =
            List.concat_map ints_of (table_rows "Query cost (" lines)
          in
          let what = Printf.sprintf "%s %s %s" spec.Wl.name tier shape in
          List.iter
            (fun h ->
              List.iter
                (fun n ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %d of %S is in the table" what n h)
                    true (List.mem n figures))
                (ints_of h);
              if tier = "tier-1"
                 && (shape = "trace/values" || shape = "trace/addresses")
              then
                Alcotest.(check bool)
                  (Printf.sprintf "%s: no seek hint (%s)" what h)
                  false (has_sub h "inside"))
            hints)
        (render_shapes s))
    (Lazy.force nine)

(* Over the same containers, no query pays less than a row of its
   --analyze table estimates unless the row is exact: the value and
   address estimates are lower bounds read off the container's
   structure, and [at] (at stratified timestamps) and the default
   backward slice estimate nothing. *)
let test_bounds_hold () =
  List.iter
    (fun ((spec : Wl.t), tier, wet) ->
      let s, scope = open_scoped wet in
      let total = wet.W.stats.W.path_execs in
      List.iter
        (fun (shape, run) ->
          let _, p = Qprof.run ~scope shape run in
          let actual k =
            List.fold_left
              (fun acc (st : Ex.stream_stats) ->
                if Ex.stream_kind st.Ex.e_stream = k then acc + Ex.steps st
                else acc)
              0 p.Qprof.p_streams
          in
          List.iter
            (fun (e : Query.class_estimate) ->
              let a = actual e.Query.est_kind in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s %s: %s estimated %d, actual %d"
                   spec.Wl.name tier shape e.Query.est_kind e.Query.est_steps a)
                true
                (e.Query.est_exact || e.Query.est_steps <= a))
            (Query.estimate wet shape))
        ([
           ("trace/values", fun () ->
               ignore (Render.trace s ~kind:Render.Values ~limit:16));
           ("trace/addresses", fun () ->
               ignore (Render.trace s ~kind:Render.Addresses ~limit:16));
           ("slice/backward", fun () -> ignore (Render.slice s ~output:None));
         ]
        @ List.map
            (fun q ->
              ("at", fun () ->
                  ignore (Render.at s ~ts:(Some (max 1 (q * total / 4))))))
            [ 0; 1; 2; 3; 4 ]))
    (Lazy.force nine)

(* The last [n] words of a table row as integers, and the words before
   them joined back with single spaces (a stream or class name). *)
let split_row n row =
  let words = List.filter (( <> ) "") (String.split_on_char ' ' row) in
  let k = List.length words - n in
  ( String.concat " " (List.filteri (fun i _ -> i < k) words),
    List.filteri (fun i _ -> i >= k) words |> List.map int_of_string )

(* Over the nine programs on both tiers and the five shapes, the tables
   --analyze prints add up to the profile: each class's Actual is its
   Fwd + Bwd; the Streams, Fwd, Bwd, Seeks and Dir switches columns sum
   to the profile's streams, forward and backward steps, seeks and
   switches; and the busiest table lists the five rows with the most
   steps, most first, as the profile orders ties. *)
let test_analyze_sums () =
  List.iter
    (fun ((spec : Wl.t), tier, wet) ->
      let s, scope = open_scoped wet in
      List.iter
        (fun (shape, run) ->
          let _, p = Qprof.run ~scope shape run in
          let what = Printf.sprintf "%s %s %s" spec.Wl.name tier shape in
          let lines = Render.analyze wet p in
          let classes =
            List.map
              (fun row ->
                let words =
                  List.filter (( <> ) "") (String.split_on_char ' ' row)
                in
                let _, cols = split_row 5 row in
                (int_of_string (List.nth words 2), cols))
              (table_rows "Estimated vs actual cursor steps" lines)
          in
          List.iter
            (fun (actual, cols) ->
              Alcotest.(check int)
                (what ^ ": Actual = Fwd + Bwd")
                (List.nth cols 1 + List.nth cols 2)
                actual)
            classes;
          let c = p.Qprof.p_total in
          Alcotest.(check (list int))
            (what ^ ": columns sum to the profile")
            [
              List.length p.Qprof.p_streams; c.Qprof.c_fwd; c.Qprof.c_bwd;
              c.Qprof.c_seeks; c.Qprof.c_switches;
            ]
            (List.fold_left
               (fun acc (_, cols) -> List.map2 ( + ) acc cols)
               [ 0; 0; 0; 0; 0 ] classes);
          let busiest =
            List.stable_sort
              (fun a b -> Int.compare (Ex.steps b) (Ex.steps a))
              p.Qprof.p_streams
            |> List.filteri (fun i _ -> i < 5)
            |> List.map (fun (st : Ex.stream_stats) ->
                   ( Ex.stream_name st.Ex.e_stream,
                     [
                       Ex.steps st; st.Ex.e_fwd; st.Ex.e_bwd; st.Ex.e_seeks;
                       st.Ex.e_switches;
                     ] ))
          in
          Alcotest.(check (list (pair string (list int))))
            (what ^ ": the five busiest streams")
            busiest
            (List.map (split_row 5) (table_rows "Busiest streams." lines)))
        (render_shapes s))
    (Lazy.force nine)

(* ------------------------------------------------------------------ *)
(* Off = free                                                          *)
(* ------------------------------------------------------------------ *)

let test_disabled () =
  let s, scope = open_scoped (Lazy.force w2) in
  let recorder = W.Session.recorder s in
  Alcotest.(check bool) "explain disarmed" false (Ex.recording recorder);
  (* with the sink on, so that a recorded query would show *)
  Wet_obs.Sink.enable ();
  Fun.protect ~finally:Wet_obs.Sink.disable @@ fun () ->
  let n0, _ = latency () in
  run_op s Cf;
  run_op s Vals;
  Alcotest.(check bool) "still disarmed" false (Ex.recording recorder);
  Alcotest.(check int) "nothing recorded outside a context" n0
    (fst (latency ()));
  ignore (Qprof.run ~scope "trace/cf" (fun () -> run_op s Cf));
  Alcotest.(check int) "a context records its query once" (n0 + 1)
    (fst (latency ()))

let test_error_outcome () =
  let s, scope = open_scoped (Lazy.force w1) in
  let res, p =
    Qprof.run ~scope "boom" (fun () ->
        ignore (run_op s Cf);
        raise Exit)
  in
  Alcotest.(check bool) "Error result" true (res = Error Exit);
  Alcotest.(check bool) "error outcome" true
    (has_sub p.Qprof.p_outcome "error:");
  Alcotest.(check bool) "disarmed after unwind" false
    (Ex.recording (W.Session.recorder s));
  Alcotest.(check bool) "cost still physical" true
    (Qprof.nonneg_cost p.Qprof.p_total);
  let res, p = Qprof.run ~scope "after" (fun () -> run_op s Cf) in
  Alcotest.(check bool) "a new context starts after the error" true
    (res = Ok () && p.Qprof.p_outcome = "ok")

let () =
  Alcotest.run "wet_qprof"
    [
      ( "attribution",
        [
          QCheck_alcotest.to_alcotest prop_sum_consistency;
          QCheck_alcotest.to_alcotest prop_nesting;
          QCheck_alcotest.to_alcotest prop_views_reconcile;
        ] );
      ( "qlog",
        [
          QCheck_alcotest.to_alcotest prop_qlog_roundtrip;
          Alcotest.test_case "append/load/summarize" `Quick test_qlog_file;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "trace/cf is exact on both tiers" `Quick
            test_estimate_cf;
          Alcotest.test_case "estimated classes are touched" `Quick
            test_estimate_classes;
          Alcotest.test_case "analyze tables sum to the profile" `Quick
            test_analyze_sums;
        ] );
      ( "hints",
        [
          Alcotest.test_case "hints quote their own cost table" `Quick
            test_hints_quote_the_table;
          Alcotest.test_case "value and address bounds hold" `Quick
            test_bounds_hold;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "off means off" `Quick test_disabled;
          Alcotest.test_case "exceptions unwind cleanly" `Quick
            test_error_outcome;
        ] );
    ]
