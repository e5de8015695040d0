type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  ev_name : string;
  ev_ts_ns : int;
  ev_dur_ns : int option;
  ev_depth : int;
  ev_attrs : (string * value) list;
}

let enabled = ref false

let epoch = ref 0

let buffer : event list ref = ref []

let enable () =
  buffer := [];
  epoch := Clock.now_ns ();
  enabled := true

let disable () = enabled := false

let epoch_ns () = !epoch

let buffering = ref true

let record ev = if !buffering then buffer := ev :: !buffer

let events () = List.rev !buffer

let heartbeat_every = ref 0

let on_tick : (unit -> unit) option ref = ref None

let set_on_tick f = on_tick := Some f

let clear_on_tick () = on_tick := None

let tick () =
  if !enabled then match !on_tick with Some f -> f () | None -> ()
