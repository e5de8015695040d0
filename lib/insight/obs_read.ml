module Metrics = Wet_obs.Metrics

let int_field k j = Option.bind (Json.member k j) Json.to_int

(* An instrument line back into the reading [Wet_obs.Export] wrote it
   from. A bucket's [lo] bound names its index: [Metrics.bucket_of lo]. *)
let reading_of j =
  match Option.bind (Json.member "type" j) Json.to_str with
  | Some "counter" -> Option.map (fun v -> Metrics.Counter v) (int_field "value" j)
  | Some "gauge" -> Option.map (fun v -> Metrics.Gauge v) (int_field "value" j)
  | Some "histogram" -> (
    let bucket b =
      match (int_field "lo" b, int_field "count" b) with
      | Some lo, Some n -> Some (Metrics.bucket_of lo, n)
      | _ -> None
    in
    match (int_field "count" j, int_field "sum" j, Json.member "buckets" j) with
    | Some h_count, Some h_sum, Some (Json.Arr bs) ->
      let h_buckets = List.filter_map bucket bs in
      if List.compare_lengths h_buckets bs <> 0 then None
      else
        Some
          (Metrics.Histogram
             {
               Metrics.h_count;
               h_sum;
               h_min = Option.value (int_field "min" j) ~default:max_int;
               h_max = Option.value (int_field "max" j) ~default:min_int;
               h_buckets;
             })
    | _ -> None)
  | _ -> None

let parse lines =
  let rec go schema acc = function
    | [] -> Ok (schema, List.rev acc)
    | l :: rest when String.trim l = "" -> go schema acc rest
    | l :: rest -> (
      match Json.parse l with
      | Error m -> Error m
      | Ok j -> (
        match (Json.member "name" j, Json.member "schema" j) with
        | Some n, _ -> (
          match (Json.to_str n, reading_of j) with
          | Some name, Some r -> go schema ((name, r) :: acc) rest
          | _ -> Error ("malformed instrument line: " ^ l))
        | None, Some s -> go (Json.to_str s) acc rest
        | None, None -> go schema acc rest))
  in
  go None [] lines

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text ->
    Result.map_error
      (Printf.sprintf "%s: %s" path)
      (parse (String.split_on_char '\n' text))

let kind = function
  | Metrics.Counter _ -> "counter"
  | Metrics.Gauge _ -> "gauge"
  | Metrics.Histogram _ -> "histogram"

let volume = function
  | Metrics.Counter v | Metrics.Gauge v -> v
  | Metrics.Histogram h -> h.Metrics.h_count
