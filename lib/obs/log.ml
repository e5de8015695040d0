type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" | "warning" -> Ok Warn
  | "error" -> Ok Error
  | other ->
    Error
      (Printf.sprintf "unknown log level %S (debug, info, warn or error)"
         other)

let threshold =
  ref
    (match Option.map level_of_string (Sys.getenv_opt "WET_LOG") with
     | Some (Ok l) -> l
     | Some (Error _) | None -> Info)

let quiet = ref false

let jsonl : out_channel option ref = ref None

let set_jsonl oc = jsonl := oc

(* Timestamps are monotonic ms since the first line, so daemon logs
   order and diff cleanly regardless of wall-clock adjustments. *)
let t0 = Clock.now_ns ()

let elapsed_ms () = Clock.to_s (Clock.now_ns () - t0) *. 1e3

(* One mutex covers stderr and the JSONL channel: the serve daemon logs
   from one thread per connection. OCaml 5 ships Mutex in the stdlib. *)
let lock = Mutex.create ()

let to_sink level_str msg =
  match !jsonl with
  | None -> ()
  | Some oc ->
    let b = Buffer.create (String.length msg + 8) in
    Export.add_json_string b msg;
    Printf.fprintf oc "{\"ts_ms\":%.3f,\"level\":\"%s\",\"msg\":%s}\n%!"
      (elapsed_ms ()) level_str (Buffer.contents b)

(* A live status line owns the current stderr row; regular lines must
   break it before printing or the two interleave on one row. *)
let status_active = ref false

let break_status () =
  if !status_active then begin
    Printf.eprintf "\n";
    status_active := false
  end

let prefix = function
  | Debug -> "[wet:debug] "
  | Info -> "[wet] "
  | Warn -> "[wet:warn] "
  | Error -> "[wet:error] "

let emit lvl s =
  if severity lvl >= severity !threshold then begin
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        to_sink (level_name lvl) s;
        let on_stderr =
          match lvl with Debug | Info -> not !quiet | Warn | Error -> true
        in
        if on_stderr then begin
          break_status ();
          Printf.eprintf "%s%s\n%!" (prefix lvl) s
        end)
  end

let debug fmt = Printf.ksprintf (emit Debug) fmt
let info fmt = Printf.ksprintf (emit Info) fmt
let warn fmt = Printf.ksprintf (emit Warn) fmt
let error fmt = Printf.ksprintf (emit Error) fmt

let status fmt =
  Printf.ksprintf
    (fun s ->
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          to_sink "status" s;
          if not !quiet then begin
            Printf.eprintf "\r%s%!" s;
            status_active := true
          end))
    fmt

let finish_status () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      if !status_active then begin
        Printf.eprintf "\n%!";
        status_active := false
      end)
