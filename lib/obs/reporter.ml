module Obs = Metrics

(* Live cells, interned by name: the interpreter and builder own the
   writes, the reporter only reads. [interp.stmts] is credited once at
   run end, [interp.heartbeat_stmts] advances during the run, so the
   live statement count is the max of the two. *)
let c_stmts = Obs.counter "interp.stmts"

let g_hb = Obs.gauge "interp.heartbeat_stmts"

let c_shards = Obs.counter "build.shards"

(* The reporter's own overhead, visible in the same exports it reads. *)
let c_ticks = Obs.counter "pulse.reporter.ticks"

let c_emits = Obs.counter "pulse.reporter.emits"

let h_emit_ns = Obs.histogram "pulse.reporter.emit_ns"

type sink = Tty | Jsonl of out_channel

type t = {
  out : sink;
  interval_ns : int;
  t0 : int;
  mutable last_ns : int;
  mutable last_stmts : int;
  mutable seq : int;
}

let create ?(interval_ms = 100) out =
  (match out with
   | Jsonl oc ->
     Printf.fprintf oc "{\"schema\":%S,\"type\":\"meta\",\"stream\":\"pulse\"}\n%!"
       Export.schema
   | Tty -> ());
  {
    out;
    interval_ns = interval_ms * 1_000_000;
    t0 = Clock.now_ns ();
    last_ns = 0;
    last_stmts = 0;
    seq = 0;
  }

let live_stmts () = max (Obs.value c_stmts) (Obs.gauge_value g_hb)

let human n =
  if n >= 1_000_000_000 then Printf.sprintf "%.1fG" (float_of_int n /. 1e9)
  else if n >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.0fk" (float_of_int n /. 1e3)
  else string_of_int n

let emit t now =
  Obs.time h_emit_ns (fun () ->
    let stmts = live_stmts () in
    let since = if t.last_ns = 0 then t.t0 else t.last_ns in
    let dt_s = Clock.to_s (now - since) in
    let rate =
      if dt_s > 0. then float_of_int (stmts - t.last_stmts) /. dt_s else 0.
    in
    let shards = Obs.value c_shards in
    t.seq <- t.seq + 1;
    t.last_ns <- now;
    t.last_stmts <- stmts;
    Obs.incr c_emits;
    match t.out with
    | Jsonl oc ->
      Printf.fprintf oc
        "{\"type\":\"heartbeat\",\"seq\":%d,\"elapsed_ms\":%.1f,\"stmts\":%d,\"stmts_per_sec\":%.0f,\"shards\":%d}\n\
         %!"
        t.seq
        (Clock.to_s (now - t.t0) *. 1e3)
        stmts rate shards
    | Tty ->
      (* Through the Log layer, not a raw eprintf: --quiet suppresses
         the line and a JSONL log sink receives it as a status object. *)
      Log.status "[wet] %6s stmts  %6s/s  shards %-4d" (human stmts)
        (human (int_of_float rate)) shards)

let tick t =
  Obs.incr c_ticks;
  let now = Clock.now_ns () in
  if now - t.last_ns >= t.interval_ns then emit t now

let force t = emit t (Clock.now_ns ())

let finish t =
  force t;
  match t.out with
  | Tty -> Log.finish_status ()
  | Jsonl oc -> flush oc

let install t = Sink.set_on_tick (fun () -> tick t)

let uninstall () = Sink.clear_on_tick ()
