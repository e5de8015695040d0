type stream =
  | Ts of int
  | Uvals of int
  | Pattern of int * int
  | Label_src of int
  | Label_dst of int

type kind = K_ts | K_uvals | K_pattern | K_label_src | K_label_dst

type op = Fwd | Bwd | Seek

type stats = {
  st_stream : stream;
  mutable st_fwd : int;
  mutable st_bwd : int;
  mutable st_seeks : int;
  mutable st_seek_dist : int;
  mutable st_switches : int;
  mutable st_last : int;  (* 0 none, 1 forward, 2 backward *)
}

(* A recorder is one independent explain recording: an armed flag, the
   per-stream tallies, and the query names seen while armed. Each
   [Wet.Session] owns one, so concurrent sessions can explain queries
   without interleaving their recordings.

   The tallies sit in dense tables, one per stream kind, indexed by the
   stream's id (pattern streams by node, then by group). A slot no step
   has reached holds [vacant]; [rc_touched] lists the filled ones. A
   step on a stream already touched is therefore a few array reads and
   field writes, with nothing allocated or hashed, and arming, resetting
   and reporting walk only the touched streams, however far the tables
   have grown. *)
type recorder = {
  mutable rc_armed : bool;
  mutable rc_ts : stats array;  (* by node id *)
  mutable rc_uvals : stats array;  (* by copy id *)
  mutable rc_pattern : stats array array;  (* by node id, then group *)
  mutable rc_src : stats array;  (* by label id *)
  mutable rc_dst : stats array;  (* by label id *)
  mutable rc_touched : stats list;
  mutable rc_queries : string list;
}

let fresh s =
  {
    st_stream = s;
    st_fwd = 0;
    st_bwd = 0;
    st_seeks = 0;
    st_seek_dist = 0;
    st_switches = 0;
    st_last = 0;
  }

(* The empty slot, told apart by physical equality and never written. *)
let vacant = fresh (Ts (-1))

let make_recorder () =
  {
    rc_armed = false;
    rc_ts = [||];
    rc_uvals = [||];
    rc_pattern = [||];
    rc_src = [||];
    rc_dst = [||];
    rc_touched = [];
    rc_queries = [];
  }

let recording r = r.rc_armed

(* [slot] and [find] are inlined into [touch]: they are its whole cost
   on a stream already touched. *)
let[@inline] slot tbl id = if id < Array.length tbl then tbl.(id) else vacant

let[@inline] find r kind a b =
  match kind with
  | K_ts -> slot r.rc_ts a
  | K_uvals -> slot r.rc_uvals a
  | K_pattern ->
    if a < Array.length r.rc_pattern then slot r.rc_pattern.(a) b else vacant
  | K_label_src -> slot r.rc_src a
  | K_label_dst -> slot r.rc_dst a

(* [tbl], grown (doubling) until [id] indexes it. *)
let grow empty tbl id =
  let n = Array.length tbl in
  if id < n then tbl
  else begin
    let t = Array.make (max (id + 1) (2 * n)) empty in
    Array.blit tbl 0 t 0 n;
    t
  end

(* The first step on a stream since the last reset: its tallies start
   at zero. *)
let admit r kind a b =
  if a < 0 || b < 0 then invalid_arg "Explain.touch: negative stream id";
  let st =
    fresh
      (match kind with
       | K_ts -> Ts a
       | K_uvals -> Uvals a
       | K_pattern -> Pattern (a, b)
       | K_label_src -> Label_src a
       | K_label_dst -> Label_dst a)
  in
  (match kind with
   | K_ts ->
     r.rc_ts <- grow vacant r.rc_ts a;
     r.rc_ts.(a) <- st
   | K_uvals ->
     r.rc_uvals <- grow vacant r.rc_uvals a;
     r.rc_uvals.(a) <- st
   | K_pattern ->
     r.rc_pattern <- grow [||] r.rc_pattern a;
     r.rc_pattern.(a) <- grow vacant r.rc_pattern.(a) b;
     r.rc_pattern.(a).(b) <- st
   | K_label_src ->
     r.rc_src <- grow vacant r.rc_src a;
     r.rc_src.(a) <- st
   | K_label_dst ->
     r.rc_dst <- grow vacant r.rc_dst a;
     r.rc_dst.(a) <- st);
  r.rc_touched <- st :: r.rc_touched;
  st

let clear r st =
  match st.st_stream with
  | Ts a -> r.rc_ts.(a) <- vacant
  | Uvals a -> r.rc_uvals.(a) <- vacant
  | Pattern (a, b) -> r.rc_pattern.(a).(b) <- vacant
  | Label_src a -> r.rc_src.(a) <- vacant
  | Label_dst a -> r.rc_dst.(a) <- vacant

let reset ~recorder =
  List.iter (clear recorder) recorder.rc_touched;
  recorder.rc_touched <- [];
  recorder.rc_queries <- []

let arm ~recorder =
  reset ~recorder;
  recorder.rc_armed <- true

let disarm ~recorder = recorder.rc_armed <- false

let query ~recorder name =
  if recorder.rc_armed then
    recorder.rc_queries <- name :: recorder.rc_queries

let touch ~recorder kind a b op n =
  if recorder.rc_armed && n >= 0 then begin
    let st = find recorder kind a b in
    let st = if st == vacant then admit recorder kind a b else st in
    match op with
    | Fwd ->
      st.st_fwd <- st.st_fwd + n;
      if st.st_last = 2 then st.st_switches <- st.st_switches + 1;
      st.st_last <- 1
    | Bwd ->
      st.st_bwd <- st.st_bwd + n;
      if st.st_last = 1 then st.st_switches <- st.st_switches + 1;
      st.st_last <- 2
    | Seek ->
      st.st_seeks <- st.st_seeks + 1;
      st.st_seek_dist <- st.st_seek_dist + n;
      (* a seek reestablishes the cursor; the next step is not a
         direction switch *)
      st.st_last <- 0
  end

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type stream_stats = {
  e_stream : stream;
  e_fwd : int;
  e_bwd : int;
  e_seeks : int;
  e_seek_dist : int;
  e_switches : int;
}

type report = { r_queries : string list; r_streams : stream_stats list }

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

let report ~recorder =
  let streams =
    List.rev_map
      (fun st ->
        {
          e_stream = st.st_stream;
          e_fwd = st.st_fwd;
          e_bwd = st.st_bwd;
          e_seeks = st.st_seeks;
          e_seek_dist = st.st_seek_dist;
          e_switches = st.st_switches;
        })
      recorder.rc_touched
    |> List.sort (fun x y -> compare_stream x.e_stream y.e_stream)
  in
  { r_queries = List.rev recorder.rc_queries; r_streams = streams }

let steps s = s.e_fwd + s.e_bwd + s.e_seek_dist

let total_steps r = List.fold_left (fun a s -> a + steps s) 0 r.r_streams

(* [diff ~before ~after] is the work recorded between two report
   snapshots of one armed window: per-stream field-wise subtraction
   (streams absent from [before] count from zero; all-zero rows are
   dropped) and the query names appended after [before] was taken. This
   is what lets nested profiling contexts each claim their own slice of
   one continuously armed recording. *)
let diff ~before ~after =
  let prior = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace prior s.e_stream s) before.r_streams;
  let streams =
    List.filter_map
      (fun a ->
        let z =
          match Hashtbl.find_opt prior a.e_stream with
          | Some b ->
            {
              e_stream = a.e_stream;
              e_fwd = a.e_fwd - b.e_fwd;
              e_bwd = a.e_bwd - b.e_bwd;
              e_seeks = a.e_seeks - b.e_seeks;
              e_seek_dist = a.e_seek_dist - b.e_seek_dist;
              e_switches = a.e_switches - b.e_switches;
            }
          | None -> a
        in
        if z.e_fwd = 0 && z.e_bwd = 0 && z.e_seeks = 0 && z.e_switches = 0
        then None
        else Some z)
      after.r_streams
  in
  let rec drop n l = if n <= 0 then l else match l with
    | [] -> []
    | _ :: tl -> drop (n - 1) tl
  in
  {
    r_queries = drop (List.length before.r_queries) after.r_queries;
    r_streams = streams;
  }

(* ------------------------------------------------------------------ *)
(* Feeding the observatory                                            *)
(* ------------------------------------------------------------------ *)

(* Registered up front (interning is idempotent) so --list-metrics sees
   them even before the first explained query. *)
let c_streams = Wet_obs.Metrics.counter "explain.streams"

let c_fwd = Wet_obs.Metrics.counter "explain.fwd_steps"

let c_bwd = Wet_obs.Metrics.counter "explain.bwd_steps"

let c_seeks = Wet_obs.Metrics.counter "explain.seeks"

let c_seek_dist = Wet_obs.Metrics.counter "explain.seek_distance"

let c_switches = Wet_obs.Metrics.counter "explain.dir_switches"

let h_stream_steps = Wet_obs.Metrics.histogram "explain.stream_steps"

(* Take the report and fold its tallies into the wet_obs instruments,
   one histogram observation per touched stream — this is what links
   per-query cost profiles to the bench observatory's aggregates. *)
let publish ~recorder =
  let r = report ~recorder in
  Wet_obs.Metrics.add c_streams (List.length r.r_streams);
  List.iter
    (fun s ->
      Wet_obs.Metrics.add c_fwd s.e_fwd;
      Wet_obs.Metrics.add c_bwd s.e_bwd;
      Wet_obs.Metrics.add c_seeks s.e_seeks;
      Wet_obs.Metrics.add c_seek_dist s.e_seek_dist;
      Wet_obs.Metrics.add c_switches s.e_switches;
      Wet_obs.Metrics.observe h_stream_steps (steps s))
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
