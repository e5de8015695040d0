(* Shared helpers: clocks, order statistics, seeded derivation, process
   memory, files and the provenance stamp every result carries. *)

module Json = Wet_insight.Json

let now_ns = Wet_obs.Clock.now_ns

let ms ns = float_of_int ns /. 1e6

let secs ns = float_of_int ns /. 1e9

(* [timed f] is [f ()] with its wall time in nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* ---------------- busy time ---------------- *)

(* Every time the benchmark reports is busy time: the CPU time the
   kernel charged the threads that did the work. On a shared host the
   wall of the same work stretches whenever another process or the
   hypervisor (steal) holds the core, by up to twice from one run to the
   next; the kernel charges a thread only for the time it ran, so busy
   time leaves that waiting out. It also leaves out time blocked on the
   disk or on a lock; each run prints its walls beside it. *)
external thread_cpu_ns : unit -> int = "perfbench_thread_cpu_ns" [@@noalloc]

(* All threads of process [pid], finished ones included; -1 once the
   process is gone. *)
external pid_cpu_ns : int -> int = "perfbench_pid_cpu_ns" [@@noalloc]

(* [busy f] is [f ()] with the CPU time the calling thread spent on
   it, ns. *)
let busy f =
  let c0 = thread_cpu_ns () in
  let r = f () in
  (r, thread_cpu_ns () - c0)

(* The threads of process [pid]. *)
let tasks pid =
  Sys.readdir (Printf.sprintf "/proc/%d/task" pid)
  |> Array.to_list |> List.filter_map int_of_string_opt

(* CPU time of thread [tid] of another process [pid], ns, from the
   kernel's scheduler statistics. The kernel brings the figure up to
   date whenever the thread stops running, so it is exact while the
   thread sleeps and may lag by a scheduler tick while it runs. *)
let task_cpu_ns ~pid ~tid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/task/%d/schedstat" pid tid)
    (fun ic ->
      match In_channel.input_line ic with
      | Some l -> Scanf.sscanf l "%d" Fun.id
      | None -> failwith "empty schedstat")

(* Whether thread [tid] of process [pid] is on a CPU or waiting for one
   (state R in /proc/PID/task/TID/stat; the state follows the command
   name, which ends at the last ')'). *)
let task_running ~pid ~tid =
  let s =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/task/%d/stat" pid tid)
      In_channel.input_all
  in
  let i = String.rindex s ')' in
  i + 2 < String.length s && s.[i + 2] = 'R'

(* [task_cpu_ns] once the thread has stopped running, so that the figure
   is exact: waits up to about 2 ms for it to block. *)
let settled_cpu_ns ~pid ~tid =
  let rec wait n =
    if n > 0 && task_running ~pid ~tid then begin
      Unix.sleepf 20e-6;
      wait (n - 1)
    end
  in
  wait 100;
  task_cpu_ns ~pid ~tid

(* ---------------- order statistics ---------------- *)

(* Nearest-rank [percentile p xs], [p] in [0, 1]. A failed request
   enters as [infinity], and so does any percentile it reaches. *)
let percentile = Wet_insight.Bench.percentile

(* ln Γ(x) for x > 0 (Lanczos, g = 7). *)
let log_gamma x =
  let c =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
       771.32342877765313; -176.61502916214059; 12.507343278686905;
       -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1. in
  let t = x +. 7.5 in
  let s = ref c.(0) in
  for i = 1 to 8 do
    s := !s +. (c.(i) /. (x +. float_of_int i))
  done;
  (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !s

(* Regularized incomplete beta I_x(a, b), by the modified Lentz
   continued fraction. *)
let incomplete_beta a b x =
  let cf a b x =
    let tiny = 1e-300 in
    let clamp v = if Float.abs v < tiny then tiny else v in
    let c = ref 1. and d = ref (1. /. clamp (1. -. ((a +. b) *. x /. (a +. 1.)))) in
    let h = ref !d and m = ref 1 and converged = ref false in
    while (not !converged) && !m < 10_000 do
      let fm = float_of_int !m in
      let step num =
        d := 1. /. clamp (1. +. (num *. !d));
        c := clamp (1. +. (num /. !c));
        !d *. !c
      in
      h := !h *. step (fm *. (b -. fm) *. x /. ((a +. (2. *. fm) -. 1.) *. (a +. (2. *. fm))));
      let delta =
        step (-.(a +. fm) *. (a +. b +. fm) *. x /. ((a +. (2. *. fm)) *. (a +. (2. *. fm) +. 1.)))
      in
      h := !h *. delta;
      converged := Float.abs (delta -. 1.) < 1e-13;
      incr m
    done;
    !h
  in
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x)
        +. (b *. log (1. -. x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. cf a b x /. a
    else 1. -. (front *. cf b a (1. -. x) /. b)

(* Harrell–Davis estimate of the [p] quantile: a weighted mean of every
   order statistic, weights from Beta(p(n+1), (1-p)(n+1)). The build
   workloads time a few dozen jobs of nine programs whose walls differ
   tenfold, so a nearest-rank median jumps from one program to the next
   with host noise; in paired runs of one set of seeds this estimate
   halved the spread of their [latency_p50_ms]. Failed jobs enter as
   [infinity]; any that carries weight makes the estimate infinite. *)
let smooth_percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let fn = float_of_int n in
    let alpha = p *. (fn +. 1.) and beta = (1. -. p) *. (fn +. 1.) in
    let acc = ref 0. and prev = ref 0. in
    for i = 1 to n do
      let cur = incomplete_beta alpha beta (float_of_int i /. fn) in
      let w = cur -. !prev in
      prev := cur;
      if w > 0. then acc := !acc +. (w *. a.(i - 1))
    done;
    !acc
  end


let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

(* A ratio that reads 0 when nothing was counted. *)
let ratio num den = if den = 0. then 0. else num /. den

(* ---------------- host speed ---------------- *)

(* Busy time does not remove a core that runs slower. On a shared host
   the same fixed loop takes 48 or 71 ms of CPU from one second to the
   next, and for a minute at a time a whole run can go 1.45x faster,
   its jobs and its set-ups alike; likely another guest's work sharing
   the physical core comes and goes. So every run also times a fixed
   loop of the kinds of work the program does (hashing, sorting,
   allocating, building strings, marshalling), taken from the standard
   library alone so that no change to the program moves it, between
   jobs or on a thread of its own every 50 ms. Its mean busy time, against
   [reference_ms], the loop's time on the host the benchmark was
   written on in its usual state, gives the speed, and every busy time
   the run reports is scaled to that reference speed: by the loop's
   mean over the whole run where the work is spread over it, or over
   the seconds around the work where it is not. *)
let reference_loop () =
  let n = 1024 in
  let h = Hashtbl.create n in
  for i = 0 to (4 * n) - 1 do
    Hashtbl.replace h ((i * 7919) land ((4 * n) - 1)) i
  done;
  let a = Array.init n (fun i -> (i * 40503) land 0xFFFFF) in
  Array.sort compare a;
  let b = Buffer.create 4096 in
  for i = 0 to 4 * n do
    Buffer.add_string b (string_of_int (Option.value ~default:i (Hashtbl.find_opt h i)))
  done;
  let m = Marshal.to_string (Array.to_list (Array.sub a 0 (n / 4))) [] in
  Hashtbl.length h + a.(0) + Buffer.length b + String.length m

let reference_ms = 1.5

type speed_probe = {
  samples : (int * float) list ref;  (** when, and the loop's busy ms *)
  stop : bool Atomic.t;
  thread : Thread.t;
}

(* One run of the loop: when it ended, and its busy ms. *)
let speed_sample () =
  let c0 = thread_cpu_ns () in
  ignore (Sys.opaque_identity (reference_loop ()));
  let t = ms (thread_cpu_ns () - c0) in
  (now_ns (), t)

let start_speed_probe () =
  let samples = ref [] and stop = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.05;
          samples := speed_sample () :: !samples
        done)
      ()
  in
  { samples; stop; thread }

(* Stops the probe and returns its samples. *)
let stop_speed_probe p =
  Atomic.set p.stop true;
  Thread.join p.thread;
  !(p.samples)

(* The loop's mean busy time, ms, over the samples taken from 2 s before
   [t0] to 2 s after [t1] (over them all when fewer than five fall
   there, or when no window is given), leaving out any over 1.8 times
   the median: a loop that a major collection (one loop in seven or so,
   at 2.5 times the others) or an interrupt cut into. *)
let loop_ms ?(t0 = min_int) ?(t1 = max_int) samples =
  let near =
    List.filter_map
      (fun (t, x) ->
        if t >= t0 - 2_000_000_000 && t <= t1 + 2_000_000_000 then Some x else None)
      samples
  in
  let xs = if List.length near < 5 then List.map snd samples else near in
  let m = median xs in
  mean (List.filter (fun x -> x <= 1.8 *. m) xs)

(* A busy time measured while the loop took [loop_ms], at the reference
   speed. *)
let at_reference ~loop_ms x = x *. reference_ms /. loop_ms

(* ---------------- seeded derivation ---------------- *)

(* Every random choice of a run — program inputs, job order, kill
   shards, request streams — comes from a stream keyed by the run seed
   and a purpose label, so one purpose never shifts another's draws. *)
let rng seed purpose = Random.State.make [| seed; Hashtbl.hash purpose |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* ---------------- process memory ---------------- *)

(* VmHWM (peak resident set) of [pid], or of this process, in MB. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* Resets this process's VmHWM to its resident set now (Linux
   [clear_refs] 5), so that [peak_rss_mb ()] then reads the peak since. *)
let reset_peak_rss () =
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")

(* ---------------- child processes ---------------- *)

(* [isolated f] is [f ()] computed in a child process forked from a
   collected heap; the result comes back marshalled through a pipe, and
   an exception in the child is raised here again as [Failure]. Work
   done this way leaves this process's heap, and so the resident memory
   of the next child, as it was. Only for a single-domain process. *)
let isolated f =
  Gc.full_major ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc result [];
    flush oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let result = try Some (Marshal.from_channel ic) with End_of_file -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (match result with
     | Some (Ok v) -> v
     | Some (Error e) -> failwith e
     | None -> failwith "a child process died")

(* ---------------- files ---------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size p = (Unix.stat p).Unix.st_size

(* ---------------- provenance ---------------- *)

let command_output cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic ->
    let out = In_channel.input_all ic in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 -> Some (String.trim out)
     | _ -> None)
  | exception Unix.Unix_error _ -> None

(* The commit when run from a git work tree; otherwise (an exported
   checkout) a digest of the program sources, which identifies the code
   just as well. *)
let source_id () =
  let git =
    if Sys.file_exists ".git" then command_output "git rev-parse --short=12 HEAD"
    else None
  in
  match git with
  | Some c when c <> "" -> c
  | _ ->
    let rec files d =
      if Sys.file_exists d && Sys.is_directory d then
        Sys.readdir d |> Array.to_list |> List.sort compare
        |> List.concat_map (fun f -> files (Filename.concat d f))
      else if Filename.check_suffix d ".ml" || Filename.check_suffix d ".mli"
              || Filename.basename d = "dune"
      then [ d ]
      else []
    in
    let parts =
      List.concat_map files [ "lib"; "bin"; "perfbench" ]
      |> List.map (fun f -> f ^ "\000" ^ Digest.to_hex (Digest.file f))
    in
    "src-" ^ Digest.to_hex (Digest.string (String.concat "\n" parts))

let nproc () = Domain.recommended_domain_count ()

(* The connection-domain budget a default [wet serve] computes for this
   host; 0 means every connection is served on a sys-thread. *)
let daemon_domains () =
  (Wet_serve.Server.default_config ~socket:"").Wet_serve.Server.domains

let stamp ~workload ~seed ~seconds ~traced =
  Json.Obj
    [
      ("schema", Json.Str "perfbench/1");
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds);
      ("trace", Json.Bool traced);
      ("nproc", Json.Num (float_of_int (nproc ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (source_id ()));
      ("daemon_domains", Json.Num (float_of_int (daemon_domains ())));
    ]

(* ---------------- run configuration ---------------- *)

type cfg = {
  workload : string;
  seed : int;
  seconds : float;  (** measured phase length *)
  traced : bool;
  wet_cli : string;  (** the wet binary whose [serve] is the daemon *)
  dir : string;  (** this run's scratch directory *)
  tiny : bool;  (** self-test scale *)
  wrong_reference : bool;  (** self-test: corrupt one reference answer *)
}
