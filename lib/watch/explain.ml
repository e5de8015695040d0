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

(* A recorder notes the entry points a query hits while armed: the
   names, newest first, and how many there are. *)
type recorder = {
  mutable rc_armed : bool;
  mutable rc_queries : string list;  (* newest first *)
  mutable rc_count : int;  (* List.length rc_queries *)
}

let make_recorder () = { rc_armed = false; rc_queries = []; rc_count = 0 }

let recording r = r.rc_armed

let arm ~recorder =
  recorder.rc_queries <- [];
  recorder.rc_count <- 0;
  recorder.rc_armed <- true

let disarm ~recorder = recorder.rc_armed <- false

let query ~recorder name =
  if recorder.rc_armed then begin
    recorder.rc_queries <- name :: recorder.rc_queries;
    recorder.rc_count <- recorder.rc_count + 1
  end

let query_count ~recorder = recorder.rc_count

let queries_since ~recorder n =
  let rec take k acc = function
    | q :: rest when k > 0 -> take (k - 1) (q :: acc) rest
    | _ -> acc
  in
  take (recorder.rc_count - n) [] recorder.rc_queries

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
   the polymorphic walk: profiles list their rows in it. *)
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

let steps s = s.e_fwd + s.e_bwd
