module Telemetry = Wet_bistream.Telemetry
module Metrics = Wet_obs.Metrics
module Ex = Wet_watch.Explain

(* ------------------------------------------------------------------ *)
(* Cost vectors                                                        *)
(* ------------------------------------------------------------------ *)

type cost = {
  c_fwd : int;
  c_bwd : int;
  c_switches : int;
  c_hits : int;
  c_misses : int;
  c_bits : int;
  c_seeks : int;
  c_seek_steps : int;
  c_wall_ns : int;
  c_alloc_words : int;
}

let zero_cost =
  {
    c_fwd = 0;
    c_bwd = 0;
    c_switches = 0;
    c_hits = 0;
    c_misses = 0;
    c_bits = 0;
    c_seeks = 0;
    c_seek_steps = 0;
    c_wall_ns = 0;
    c_alloc_words = 0;
  }

let add_cost a b =
  {
    c_fwd = a.c_fwd + b.c_fwd;
    c_bwd = a.c_bwd + b.c_bwd;
    c_switches = a.c_switches + b.c_switches;
    c_hits = a.c_hits + b.c_hits;
    c_misses = a.c_misses + b.c_misses;
    c_bits = a.c_bits + b.c_bits;
    c_seeks = a.c_seeks + b.c_seeks;
    c_seek_steps = a.c_seek_steps + b.c_seek_steps;
    c_wall_ns = a.c_wall_ns + b.c_wall_ns;
    c_alloc_words = a.c_alloc_words + b.c_alloc_words;
  }

let sub_cost a b =
  {
    c_fwd = a.c_fwd - b.c_fwd;
    c_bwd = a.c_bwd - b.c_bwd;
    c_switches = a.c_switches - b.c_switches;
    c_hits = a.c_hits - b.c_hits;
    c_misses = a.c_misses - b.c_misses;
    c_bits = a.c_bits - b.c_bits;
    c_seeks = a.c_seeks - b.c_seeks;
    c_seek_steps = a.c_seek_steps - b.c_seek_steps;
    c_wall_ns = a.c_wall_ns - b.c_wall_ns;
    c_alloc_words = a.c_alloc_words - b.c_alloc_words;
  }

let decode_steps c = c.c_fwd + c.c_bwd

let nonneg_cost c =
  c.c_fwd >= 0 && c.c_bwd >= 0 && c.c_switches >= 0 && c.c_hits >= 0
  && c.c_misses >= 0 && c.c_bits >= 0 && c.c_seeks >= 0
  && c.c_seek_steps >= 0 && c.c_wall_ns >= 0 && c.c_alloc_words >= 0

(* ------------------------------------------------------------------ *)
(* Profiling contexts                                                  *)
(* ------------------------------------------------------------------ *)

type profile = {
  p_shape : string;
  p_params : (string * string) list;
  p_total : cost;  (* inclusive: everything inside the context *)
  p_self : cost;  (* exclusive: total minus completed child contexts *)
  p_streams : Ex.stream_stats list;
  p_queries : string list;
  p_outcome : string;
}

type ctx = {
  k_shape : string;
  k_params : (string * string) list;
  k_bi0 : Telemetry.snapshot;
  k_window : Telemetry.window;  (* the ledger rows this context touches *)
  k_queries0 : int;  (* entry points the recorder had noted *)
  k_local : Metrics.Local.t;
  mutable k_children : cost;  (* summed totals of completed children *)
  k_alloc0 : float;
  k_t0 : int;  (* taken last in [start]: setup is not the query's wall *)
}

(* A scope is one independent profiling surface: its own context stack,
   the ledger its contexts read and the recorder its queries note entry
   points in. Each session profiles into a scope built from its tally
   and recorder, so one connection's work never bleeds into another's
   profile. *)
type scope = {
  sp_stack : ctx list ref;
  sp_tally : Telemetry.tally;
  sp_recorder : Ex.recorder;
}

let make_scope ~tally ~recorder () =
  { sp_stack = ref []; sp_tally = tally; sp_recorder = recorder }

let active ~scope = !(scope.sp_stack) <> []

let depth ~scope = List.length !(scope.sp_stack)

let allocated_words (st : Gc.stat) =
  st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words

let start ~scope ?(params = []) shape =
  let recorder = scope.sp_recorder in
  if not (active ~scope) then Ex.arm ~recorder;
  let ctx =
    {
      k_shape = shape;
      k_params = params;
      k_bi0 = Telemetry.snapshot ~tally:scope.sp_tally ();
      k_window = Telemetry.open_window scope.sp_tally;
      k_queries0 = Ex.query_count ~recorder;
      k_local = Metrics.Local.create ();
      k_children = zero_cost;
      k_alloc0 = allocated_words (Gc.quick_stat ());
      k_t0 = Wet_obs.Clock.now_ns ();
    }
  in
  scope.sp_stack := ctx :: !(scope.sp_stack)

(* Registered up front in the process view (interning is idempotent) so
   `wet profile --list-metrics` sees the qprof family before the first
   profiled query; contexts record into private registries that merge
   onto these names. The per-shape latency histograms are dynamic. *)
let () =
  List.iter
    (fun n -> ignore (Metrics.counter n))
    [
      "qprof.queries"; "qprof.fwd_steps"; "qprof.bwd_steps";
      "qprof.dir_switches"; "qprof.dict_hits"; "qprof.dict_misses";
      "qprof.bits_touched"; "qprof.seeks"; "qprof.seek_steps";
      "qprof.alloc_words";
    ];
  ignore (Metrics.histogram "qprof.wall_ns")

(* The per-context instruments are recorded with the context's *self*
   cost (total minus completed children), so merging every context's
   registry up the stack and finally into the process view counts each
   decode step exactly once — the same telescoping that makes snapshot
   deltas of disjoint windows sum to the delta of their union. Only the
   wall histograms use the inclusive total: a span's latency is its
   latency. *)
let record reg p =
  let c name v = Metrics.add (Metrics.Local.counter reg name) v in
  c "qprof.queries" 1;
  c "qprof.fwd_steps" p.p_self.c_fwd;
  c "qprof.bwd_steps" p.p_self.c_bwd;
  c "qprof.dir_switches" p.p_self.c_switches;
  c "qprof.dict_hits" p.p_self.c_hits;
  c "qprof.dict_misses" p.p_self.c_misses;
  c "qprof.bits_touched" p.p_self.c_bits;
  c "qprof.seeks" p.p_self.c_seeks;
  c "qprof.seek_steps" p.p_self.c_seek_steps;
  c "qprof.alloc_words" p.p_self.c_alloc_words;
  Metrics.observe (Metrics.Local.histogram reg "qprof.wall_ns")
    p.p_total.c_wall_ns;
  Metrics.observe
    (Metrics.Local.histogram reg ("qprof.latency." ^ p.p_shape))
    p.p_total.c_wall_ns

let finish ~scope outcome =
  match !(scope.sp_stack) with
  | [] -> invalid_arg "Qprof.finish: no active context"
  | ctx :: rest ->
    scope.sp_stack := rest;
    let recorder = scope.sp_recorder in
    let wall = Wet_obs.Clock.now_ns () - ctx.k_t0 in
    let alloc = allocated_words (Gc.quick_stat ()) -. ctx.k_alloc0 in
    let bi =
      Telemetry.delta ~before:ctx.k_bi0
        ~after:(Telemetry.snapshot ~tally:scope.sp_tally ())
    in
    let streams =
      Ex.stats_of_rows (Telemetry.window_rows ctx.k_window)
    in
    Telemetry.close_window ctx.k_window;
    let queries = Ex.queries_since ~recorder ctx.k_queries0 in
    let total =
      {
        c_fwd = bi.Telemetry.g_fwd;
        c_bwd = bi.Telemetry.g_bwd;
        c_switches = bi.Telemetry.g_switches;
        c_hits = bi.Telemetry.g_hits;
        c_misses = bi.Telemetry.g_misses;
        c_bits = bi.Telemetry.g_bits;
        c_seeks = bi.Telemetry.g_seeks;
        c_seek_steps = bi.Telemetry.g_seek_steps;
        c_wall_ns = max 0 wall;
        c_alloc_words = max 0 (int_of_float alloc);
      }
    in
    let p =
      {
        p_shape = ctx.k_shape;
        p_params = ctx.k_params;
        p_total = total;
        p_self = sub_cost total ctx.k_children;
        p_streams = streams;
        p_queries = queries;
        p_outcome = outcome;
      }
    in
    record ctx.k_local p;
    (match rest with
     | parent :: _ ->
       parent.k_children <- add_cost parent.k_children total;
       Metrics.merge ~into:parent.k_local ctx.k_local
     | [] ->
       Ex.disarm ~recorder;
       Metrics.merge ctx.k_local);
    p

let run ~scope ?params shape f =
  start ~scope ?params shape;
  match f () with
  | x -> (Ok x, finish ~scope "ok")
  | exception e ->
    let p = finish ~scope ("error: " ^ Printexc.to_string e) in
    (Error e, p)

let profiled ~scope ?params shape f =
  match run ~scope ?params shape f with
  | Ok x, p -> (x, p)
  | Error e, _ -> raise e

(* ------------------------------------------------------------------ *)
(* Advisory hints                                                      *)
(* ------------------------------------------------------------------ *)

(* Each hint reads the cost vector alone and quotes only figures the
   --analyze cost table prints, so advice and table never disagree. *)
let hints p =
  let t = p.p_total in
  let decode = decode_steps t in
  let lookups = t.c_hits + t.c_misses in
  let out = ref [] in
  let hint fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  if decode > 0 && 4 * t.c_switches >= decode then
    hint
      "%d of %d decode steps were direction switches -- a cursor cache \
       (one parked cursor per direction) would save up to %d steps"
      t.c_switches decode t.c_switches;
  if 2 * t.c_seek_steps > decode then
    hint
      "%d of %d decode steps were taken inside %d seeks -- batch queries \
       in stream order or park cursors near the hot region"
      t.c_seek_steps decode t.c_seeks;
  if lookups > 0 && 2 * t.c_misses > lookups then
    hint
      "%d of %d decoded entries were dictionary misses (verbatim 32-bit \
       payloads) -- these streams predict poorly; tier-1 may be faster \
       for this workload"
      t.c_misses lookups;
  if decode > 0 && lookups = 0 then
    hint
      "all %d decode steps were on raw streams: each is an O(1) array \
       read, and no dictionary entry was decoded"
      decode;
  List.rev !out
