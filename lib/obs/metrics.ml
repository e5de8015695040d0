(* Counters and gauges are atomics and a histogram carries its own
   mutex, so every bump stays exact when domains record into one cell
   at once. *)
type counter = int Atomic.t

type gauge = int Atomic.t

type histogram = {
  h_lock : Mutex.t;
  buckets : int array;  (* 64 log2 buckets *)
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

type instrument = C of counter | G of gauge | H of histogram

let enabled () = !Sink.enabled

let kind_name = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | H _ -> "histogram"

type hist_snapshot = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;
}

type reading =
  | Counter of int
  | Gauge of int
  | Histogram of hist_snapshot

(* The one registry. Interning, snapshots and resets walk or grow its
   table, and a concurrent server does all three from many threads, so
   they serialise on [lock]; bumps touch only their own cell. *)
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

let lock = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let intern name make check =
  with_lock lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some i -> (
        match check i with
        | Some x -> x
        | None ->
          Wet_error.fail Obs "Wet_obs.Metrics: %s already registered as a %s"
            name (kind_name i))
      | None ->
        let x, i = make () in
        Hashtbl.replace registry name i;
        x)

let counter name =
  intern name
    (fun () ->
      let c = Atomic.make 0 in
      (c, C c))
    (function C c -> Some c | _ -> None)

let add c n = if !Sink.enabled then ignore (Atomic.fetch_and_add c n)

let incr c = add c 1

let value c = Atomic.get c

let gauge name =
  intern name
    (fun () ->
      let g = Atomic.make 0 in
      (g, G g))
    (function G g -> Some g | _ -> None)

let set g v = if !Sink.enabled then Atomic.set g v

let gauge_value g = Atomic.get g

let histogram name =
  intern name
    (fun () ->
      let h =
        {
          h_lock = Mutex.create ();
          buckets = Array.make 64 0;
          count = 0;
          sum = 0;
          min_v = max_int;
          max_v = min_int;
        }
      in
      (h, H h))
    (function H h -> Some h | _ -> None)

(* Bucket 0: v <= 0; bucket b >= 1: 2^(b-1) <= v < 2^b. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      b := !b + 1;
      x := !x lsr 1
    done;
    !b
  end

let observe h v =
  if !Sink.enabled then begin
    let b = bucket_of v in
    Mutex.lock h.h_lock;
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum + v;
    if v < h.min_v then h.min_v <- v;
    if v > h.max_v then h.max_v <- v;
    Mutex.unlock h.h_lock
  end

let time h f =
  if !Sink.enabled then begin
    let t0 = Clock.now_ns () in
    match f () with
    | x ->
      observe h (Clock.now_ns () - t0);
      x
    | exception e ->
      observe h (Clock.now_ns () - t0);
      raise e
  end
  else f ()

let read = function
  | C c -> Counter (Atomic.get c)
  | G g -> Gauge (Atomic.get g)
  | H h ->
    with_lock h.h_lock (fun () ->
        let bs = ref [] in
        for b = 63 downto 0 do
          if h.buckets.(b) > 0 then bs := (b, h.buckets.(b)) :: !bs
        done;
        Histogram
          {
            h_count = h.count;
            h_sum = h.sum;
            h_min = h.min_v;
            h_max = h.max_v;
            h_buckets = !bs;
          })

let snapshot () =
  with_lock lock (fun () ->
      Hashtbl.fold (fun name i acc -> (name, read i) :: acc) registry [])
  |> List.sort compare

let reset () =
  with_lock lock (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | C c | G c -> Atomic.set c 0
          | H h ->
            with_lock h.h_lock (fun () ->
                Array.fill h.buckets 0 64 0;
                h.count <- 0;
                h.sum <- 0;
                h.min_v <- max_int;
                h.max_v <- min_int))
        registry)
