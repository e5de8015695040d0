module Telemetry = Wet_bistream.Telemetry

type stream =
  | Ts of int
  | Uvals of int
  | Pattern of int * int
  | Label_src of int
  | Label_dst of int

(* A row name packs the kind into the low three bits and the ids above
   them; a pattern's group takes 24 bits under its node. *)
let group_bits = 24

let label s =
  let tag kind id =
    if id < 0 then invalid_arg "Explain.label: negative stream id";
    (id lsl 3) lor kind
  in
  match s with
  | Ts a -> tag 0 a
  | Uvals a -> tag 1 a
  | Pattern (a, b) ->
    if b < 0 || b lsr group_bits <> 0 then
      invalid_arg "Explain.label: pattern group out of range";
    tag 2 ((a lsl group_bits) lor b)
  | Label_src a -> tag 3 a
  | Label_dst a -> tag 4 a

let stream_of_label l =
  let id = l lsr 3 in
  match l land 7 with
  | 0 -> Ts id
  | 1 -> Uvals id
  | 2 -> Pattern (id lsr group_bits, id land ((1 lsl group_bits) - 1))
  | 3 -> Label_src id
  | 4 -> Label_dst id
  | _ -> invalid_arg "Explain.stream_of_label"

type stream_stats = {
  e_stream : stream;
  e_fwd : int;
  e_bwd : int;
  e_switches : int;
  e_seeks : int;
  e_seek_steps : int;
  e_hits : int;
  e_misses : int;
  e_bits : int;
}

type report = { r_queries : string list; r_streams : stream_stats list }

(* A recorder is one explain recording over its session's ledger: the
   window opened when it was armed, the rows that window held when it
   was disarmed, and the query names seen while armed. *)
type recorder = {
  mutable rc_tally : Telemetry.tally;
  mutable rc_window : Telemetry.window option;  (* Some while armed *)
  mutable rc_closed : stream_stats list;  (* the last window, disarmed *)
  mutable rc_queries : string list;  (* newest first *)
}

let make_recorder () =
  {
    rc_tally = Telemetry.make ();
    rc_window = None;
    rc_closed = [];
    rc_queries = [];
  }

let recording r = r.rc_window <> None

let stream_kind = function
  | Ts _ -> "ts"
  | Uvals _ -> "uvals"
  | Pattern _ -> "pattern"
  | Label_src _ -> "label.src"
  | Label_dst _ -> "label.dst"

let stream_name = function
  | Ts n -> Printf.sprintf "ts(node %d)" n
  | Uvals c -> Printf.sprintf "uvals(copy %d)" c
  | Pattern (n, g) -> Printf.sprintf "pattern(node %d, group %d)" n g
  | Label_src l -> Printf.sprintf "label %d src" l
  | Label_dst l -> Printf.sprintf "label %d dst" l

(* The order [compare] gives streams (constructor, then ids), without
   the polymorphic walk: reports list their streams in it. *)
let kind_rank = function
  | Ts _ -> 0
  | Uvals _ -> 1
  | Pattern _ -> 2
  | Label_src _ -> 3
  | Label_dst _ -> 4

let compare_stream a b =
  match (a, b) with
  | Pattern (n, g), Pattern (n', g') ->
    let c = Int.compare n n' in
    if c <> 0 then c else Int.compare g g'
  | ( (Ts x | Uvals x | Label_src x | Label_dst x),
      (Ts y | Uvals y | Label_src y | Label_dst y) )
    when kind_rank a = kind_rank b ->
    Int.compare x y
  | _ -> Int.compare (kind_rank a) (kind_rank b)

let stats_of_row (r : Telemetry.row) =
  {
    e_stream = stream_of_label r.Telemetry.r_label;
    e_fwd = r.Telemetry.r_fwd;
    e_bwd = r.Telemetry.r_bwd;
    e_switches = r.Telemetry.r_switches;
    e_seeks = r.Telemetry.r_seeks;
    e_seek_steps = r.Telemetry.r_seek_steps;
    e_hits = r.Telemetry.r_hits;
    e_misses = r.Telemetry.r_misses;
    e_bits = r.Telemetry.r_bits;
  }

let stats_of_rows rows =
  List.map stats_of_row rows
  |> List.stable_sort (fun x y -> compare_stream x.e_stream y.e_stream)

let disarm ~recorder =
  match recorder.rc_window with
  | None -> ()
  | Some w ->
    recorder.rc_closed <- stats_of_rows (Telemetry.window_rows w);
    Telemetry.close_window w;
    recorder.rc_window <- None

let clear r =
  r.rc_closed <- [];
  r.rc_queries <- []

let arm ~recorder =
  Option.iter Telemetry.close_window recorder.rc_window;
  clear recorder;
  recorder.rc_window <- Some (Telemetry.open_window recorder.rc_tally)

let reset ~recorder =
  if recording recorder then arm ~recorder else clear recorder

let bind ?tally ?recorder () =
  let recorder = Option.value recorder ~default:(make_recorder ()) in
  (match tally with
   | Some t when t != recorder.rc_tally ->
     disarm ~recorder;
     recorder.rc_tally <- t
   | _ -> ());
  (recorder.rc_tally, recorder)

let query ~recorder name =
  if recorder.rc_window <> None then
    recorder.rc_queries <- name :: recorder.rc_queries

let query_count ~recorder = List.length recorder.rc_queries

let queries_since ~recorder n =
  List.filteri (fun i _ -> i < query_count ~recorder - n) recorder.rc_queries
  |> List.rev

let report ~recorder =
  {
    r_queries = List.rev recorder.rc_queries;
    r_streams =
      (match recorder.rc_window with
       | Some w -> stats_of_rows (Telemetry.window_rows w)
       | None -> recorder.rc_closed);
  }

let steps s = s.e_fwd + s.e_bwd

let total_steps r = List.fold_left (fun a s -> a + steps s) 0 r.r_streams

(* ------------------------------------------------------------------ *)
(* Feeding the observatory                                            *)
(* ------------------------------------------------------------------ *)

(* Registered up front (interning is idempotent) so --list-metrics sees
   them even before the first explained query. *)
let c_fwd = Wet_obs.Metrics.counter "explain.fwd_steps"

let c_bwd = Wet_obs.Metrics.counter "explain.bwd_steps"

let c_switches = Wet_obs.Metrics.counter "explain.dir_switches"

let c_seeks = Wet_obs.Metrics.counter "explain.seeks"

let c_seek_steps = Wet_obs.Metrics.counter "explain.seek_steps"

let publish ~recorder =
  let r = report ~recorder in
  List.iter
    (fun s ->
      Wet_obs.Metrics.add c_fwd s.e_fwd;
      Wet_obs.Metrics.add c_bwd s.e_bwd;
      Wet_obs.Metrics.add c_switches s.e_switches;
      Wet_obs.Metrics.add c_seeks s.e_seeks;
      Wet_obs.Metrics.add c_seek_steps s.e_seek_steps)
    r.r_streams;
  r

(* Aggregate per stream category — the shape CLI tables want. *)
let by_kind r =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let k = stream_kind s.e_stream in
      let streams, fwd, bwd, seeks, switches =
        Option.value (Hashtbl.find_opt tbl k) ~default:(0, 0, 0, 0, 0)
      in
      Hashtbl.replace tbl k
        ( streams + 1,
          fwd + s.e_fwd,
          bwd + s.e_bwd,
          seeks + s.e_seeks,
          switches + s.e_switches ))
    r.r_streams;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
