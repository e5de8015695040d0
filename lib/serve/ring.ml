type stats = { total : int; dropped : int; retained : int; capacity : int }

type t = {
  cap : int;
  lock : Mutex.t;
  cells : Wet_obs.Sink.event option array;
  mutable total : int;
  mutable dropped : int;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then
    Wet_error.fail Obs "Wet_serve.Ring.create: capacity must be positive";
  {
    cap = capacity;
    lock = Mutex.create ();
    cells = Array.make capacity None;
    total = 0;
    dropped = 0;
  }

let push t e =
  Mutex.lock t.lock;
  if t.total >= t.cap then t.dropped <- t.dropped + 1;
  t.cells.(t.total mod t.cap) <- Some e;
  t.total <- t.total + 1;
  Mutex.unlock t.lock

let stats_unlocked t =
  {
    total = t.total;
    dropped = t.dropped;
    retained = min t.total t.cap;
    capacity = t.cap;
  }

let stats t =
  Mutex.lock t.lock;
  let s = stats_unlocked t in
  Mutex.unlock t.lock;
  s

(* Oldest to newest. *)
let snapshot t =
  Mutex.lock t.lock;
  let s = stats_unlocked t in
  let oldest = t.total - s.retained in
  let es =
    List.init s.retained (fun i ->
      match t.cells.((oldest + i) mod t.cap) with
      | Some e -> e
      | None -> assert false)
  in
  Mutex.unlock t.lock;
  (es, s)

let install t = Wet_obs.Sink.set_tap (push t)

let uninstall () = Wet_obs.Sink.clear_tap ()
