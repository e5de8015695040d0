module P = Protocol
module Json = Wet_insight.Json
module Clock = Wet_obs.Clock
module Metrics = Wet_obs.Metrics

type mode = Tty | Jsonl

type opts = {
  socket : string;
  mode : mode;
  interval_ms : int;
  count : int;
  instruments : int;
}

(* ---------------- metrics-line digestion ---------------- *)

let counter readings name =
  match List.assoc_opt name readings with
  | Some (Metrics.Counter v) -> v
  | _ -> 0

let gauge readings name =
  match List.assoc_opt name readings with
  | Some (Metrics.Gauge v) -> v
  | _ -> 0

(* A request is counted and timed once, by its qprof context, so the
   daemon's requests are the observations of its qprof.latency.<shape>
   histograms: merged bucket-wise, they give the total and the
   latency distribution. *)
let requests readings =
  let merged = Array.make 64 0 in
  List.iter
    (fun (name, r) ->
      match r with
      | Metrics.Histogram h
        when String.starts_with ~prefix:"qprof.latency." name ->
        List.iter (fun (b, n) -> merged.(b) <- merged.(b) + n) h.Metrics.h_buckets
      | _ -> ())
    readings;
  List.filter (fun (_, n) -> n > 0)
    (List.mapi (fun b n -> (b, n)) (Array.to_list merged))

let requests_total readings =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (requests readings)

let quantile_of_buckets ~q buckets =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
  if total = 0 then 0
  else begin
    let target = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let rec go seen = function
      | [] -> 0
      | (b, c) :: rest ->
        if seen + c >= target then 1 lsl b else go (seen + c) rest
    in
    go 0 buckets
  end

let request_quantiles readings =
  let buckets = requests readings in
  ( float_of_int (quantile_of_buckets ~q:0.5 buckets) /. 1e6,
    float_of_int (quantile_of_buckets ~q:0.95 buckets) /. 1e6 )

(* ---------------- snapshots ---------------- *)

type snap = {
  seq : int;
  elapsed_ms : float;
  readings : (string * Metrics.reading) list;
  health : Json.t;
}

let float_member name o =
  Option.value (Option.bind (Json.member name o) Json.to_num) ~default:0.

let int_member name o =
  Option.value (Option.bind (Json.member name o) Json.to_int) ~default:0

let jsonl_snapshot prev s =
  let rps =
    match prev with
    | None -> 0.
    | Some p ->
      let dt = (s.elapsed_ms -. p.elapsed_ms) /. 1e3 in
      if dt <= 0. then 0.
      else
        float_of_int (requests_total s.readings - requests_total p.readings)
        /. dt
  in
  let p50, p95 = request_quantiles s.readings in
  let cache = Option.value (Json.member "cache" s.health) ~default:(Json.Obj []) in
  let ring = Option.value (Json.member "ring" s.health) ~default:(Json.Obj []) in
  Json.Obj
    [
      ("type", Json.Str "top");
      ("seq", Json.Num (float_of_int s.seq));
      ("elapsed_ms", Json.Num s.elapsed_ms);
      ("uptime_ms", Json.Num (float_member "uptime_ms" s.health));
      ( "requests_total",
        Json.Num (float_of_int (requests_total s.readings)) );
      ("requests_per_sec", Json.Num rps);
      ("p50_ms", Json.Num p50);
      ("p95_ms", Json.Num p95);
      ("in_flight", Json.Num (float_of_int (gauge s.readings "serve.in_flight")));
      ("errors", Json.Num (float_of_int (counter s.readings "serve.errors")));
      ("cache", cache);
      ("ring", ring);
    ]

let hottest readings n =
  readings
  |> List.filter_map (fun (name, r) ->
         match r with
         | Metrics.Counter v when v > 0 -> Some (name, v)
         | _ -> None)
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < n)

let render_tty prev s ~instruments =
  let b = Buffer.create 1024 in
  Buffer.add_string b "\027[H\027[2J";
  let rps =
    match prev with
    | None -> 0.
    | Some p ->
      let dt = (s.elapsed_ms -. p.elapsed_ms) /. 1e3 in
      if dt <= 0. then 0.
      else
        float_of_int (requests_total s.readings - requests_total p.readings)
        /. dt
  in
  let p50, p95 = request_quantiles s.readings in
  let cache = Option.value (Json.member "cache" s.health) ~default:(Json.Obj []) in
  let ring = Option.value (Json.member "ring" s.health) ~default:(Json.Obj []) in
  Buffer.add_string b
    (Printf.sprintf "wet top — uptime %.1fs  requests %d  in-flight %d\n"
       (float_member "uptime_ms" s.health /. 1e3)
       (requests_total s.readings)
       (gauge s.readings "serve.in_flight"));
  Buffer.add_string b
    (Printf.sprintf "rate %.1f req/s  latency p50 %.3f ms  p95 %.3f ms\n"
       rps p50 p95);
  Buffer.add_string b
    (Printf.sprintf
       "cache %d/%d resident  %d hits  %d misses  %d evictions\n"
       (int_member "resident" cache) (int_member "capacity" cache)
       (int_member "hits" cache) (int_member "misses" cache)
       (int_member "evictions" cache));
  Buffer.add_string b
    (Printf.sprintf "ring %d pushed  %d dropped\n\n"
       (int_member "pushed" ring) (int_member "dropped" ring));
  Buffer.add_string b "hottest instruments\n";
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%10d  %s\n" v name))
    (hottest s.readings instruments);
  Buffer.contents b

(* ---------------- the poll loop ---------------- *)

let poll client ~seq ~t0 =
  match
    Client.request client (P.request ~id:(2 * seq) P.Metrics)
  with
  | Error _ as e -> e
  | Ok m when not m.P.rs_ok ->
    Error (Option.value m.P.rs_error ~default:"metrics verb failed")
  | Ok m ->
    (match
       Client.request client (P.request ~id:((2 * seq) + 1) P.Health)
     with
     | Error _ as e -> e
     | Ok h when not h.P.rs_ok ->
       Error (Option.value h.P.rs_error ~default:"health verb failed")
     | Ok h -> (
       match Wet_insight.Obs_read.parse m.P.rs_lines with
       | Error e -> Error ("metrics verb: " ^ e)
       | Ok (_, readings) ->
         Ok
           {
             seq;
             elapsed_ms = Clock.to_s (Clock.now_ns () - t0) *. 1e3;
             readings;
             health = h.P.rs_data;
           }))

let run opts =
  let interval_s = float_of_int (max 100 opts.interval_ms) /. 1e3 in
  match Client.connect opts.socket with
  | Error _ as e -> e
  | Ok client ->
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        let t0 = Clock.now_ns () in
        let rec loop prev seq =
          if opts.count > 0 && seq > opts.count then Ok ()
          else
            match poll client ~seq ~t0 with
            | Error _ as e -> e
            | Ok s ->
              (match opts.mode with
               | Jsonl ->
                 print_endline (Json.to_string (jsonl_snapshot prev s));
                 flush stdout
               | Tty ->
                 print_string
                   (render_tty prev s ~instruments:opts.instruments);
                 flush stdout);
              if opts.count > 0 && seq = opts.count then Ok ()
              else begin
                Thread.delay interval_s;
                loop (Some s) (seq + 1)
              end
        in
        loop None 1)
