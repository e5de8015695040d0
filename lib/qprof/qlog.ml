module Json = Wet_insight.Json
module Bench = Wet_insight.Bench

let schema = "wet-qlog/1"

type entry = {
  e_shape : string;
  e_params : (string * string) list;
  e_cost : Qprof.cost;  (* the inclusive total of the profiled context *)
  e_streams : int;
  e_queries : string list;
  e_outcome : string;
}

let entry_of_profile (p : Qprof.profile) =
  {
    e_shape = p.Qprof.p_shape;
    e_params = p.Qprof.p_params;
    e_cost = p.Qprof.p_total;
    e_streams = List.length p.Qprof.p_streams;
    e_queries = p.Qprof.p_queries;
    e_outcome = p.Qprof.p_outcome;
  }

let num n = Json.Num (float_of_int n)

let to_json e =
  let c = e.e_cost in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("shape", Json.Str e.e_shape);
      ("params", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.e_params));
      ("wall_ns", num c.Qprof.c_wall_ns);
      ("fwd", num c.Qprof.c_fwd);
      ("bwd", num c.Qprof.c_bwd);
      ("switches", num c.Qprof.c_switches);
      ("hits", num c.Qprof.c_hits);
      ("misses", num c.Qprof.c_misses);
      ("bits", num c.Qprof.c_bits);
      ("seeks", num c.Qprof.c_seeks);
      ("seek_steps", num c.Qprof.c_seek_steps);
      ("alloc_words", num c.Qprof.c_alloc_words);
      ("streams", num e.e_streams);
      ("queries", Json.Arr (List.map (fun q -> Json.Str q) e.e_queries));
      ("outcome", Json.Str e.e_outcome);
    ]

let of_json j =
  let int name =
    Option.bind (Json.member name j) Json.to_int |> Option.value ~default:0
  in
  match Option.bind (Json.member "schema" j) Json.to_str with
  | Some s when s = schema -> (
    match Option.bind (Json.member "shape" j) Json.to_str with
    | None -> Error "qlog entry: missing shape"
    | Some shape ->
      let params =
        match Json.member "params" j with
        | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
            kvs
        | _ -> []
      in
      let queries =
        match Option.bind (Json.member "queries" j) Json.to_list with
        | Some l -> List.filter_map Json.to_str l
        | None -> []
      in
      Ok
        {
          e_shape = shape;
          e_params = params;
          e_cost =
            {
              Qprof.c_fwd = int "fwd";
              c_bwd = int "bwd";
              c_switches = int "switches";
              c_hits = int "hits";
              c_misses = int "misses";
              c_bits = int "bits";
              c_seeks = int "seeks";
              c_seek_steps = int "seek_steps";
              c_wall_ns = int "wall_ns";
              c_alloc_words = int "alloc_words";
            };
          e_streams = int "streams";
          e_queries = queries;
          e_outcome =
            Option.bind (Json.member "outcome" j) Json.to_str
            |> Option.value ~default:"ok";
        })
  | Some s -> Error (Printf.sprintf "qlog entry: schema %S, want %S" s schema)
  | None -> Error "qlog entry: missing schema field"

let line p = Json.to_string (to_json (entry_of_profile p))

let parse_line s =
  match Json.parse s with Ok j -> of_json j | Error e -> Error e

let append path p =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (line p);
      output_char oc '\n')

let load path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines ->
    let rec go n acc = function
      | [] -> Ok (List.rev acc)
      | l :: rest when String.trim l = "" -> go (n + 1) acc rest
      | l :: rest -> (
        match parse_line l with
        | Ok e -> go (n + 1) (e :: acc) rest
        | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e))
    in
    go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Shape summaries                                                     *)
(* ------------------------------------------------------------------ *)

type shape_summary = {
  s_shape : string;
  s_count : int;
  s_errors : int;
  s_wall_total_ns : int;
  s_wall_p50_ns : float;
  s_wall_p95_ns : float;
  s_cost : Qprof.cost;  (* summed inclusive costs *)
}

let summarize entries =
  let tbl : (string, entry list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl e.e_shape with
      | Some l -> l := e :: !l
      | None -> Hashtbl.replace tbl e.e_shape (ref [ e ]))
    entries;
  Hashtbl.fold
    (fun shape l acc ->
      let es = !l in
      let walls =
        List.map (fun e -> float_of_int e.e_cost.Qprof.c_wall_ns) es
      in
      {
        s_shape = shape;
        s_count = List.length es;
        s_errors =
          List.length (List.filter (fun e -> e.e_outcome <> "ok") es);
        s_wall_total_ns =
          List.fold_left (fun a e -> a + e.e_cost.Qprof.c_wall_ns) 0 es;
        s_wall_p50_ns = Bench.percentile 0.50 walls;
        s_wall_p95_ns = Bench.percentile 0.95 walls;
        s_cost =
          List.fold_left
            (fun a e -> Qprof.add_cost a e.e_cost)
            Qprof.zero_cost es;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.s_wall_total_ns a.s_wall_total_ns)
