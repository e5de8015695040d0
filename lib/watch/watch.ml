type action = Count | Capture | Sample of int | Stop_at of int

type probe = {
  p_name : string;
  p_filter : Filter.t;
  p_compiled : Filter.compiled;
  p_action : action;
  p_ring : Ring.t option;
  p_counter : Wet_obs.Metrics.counter;
  mutable p_matches : int;
  mutable p_stopped : int option;
}

let probe ?(name = "watch") ?(ring = 16) prog filter action =
  (match action with
   | Sample n when n < 1 ->
     invalid_arg "Watch.probe: sample period must be >= 1"
   | Stop_at k when k < 1 ->
     invalid_arg "Watch.probe: stop-at match index must be >= 1"
   | _ -> ());
  {
    p_name = name;
    p_filter = filter;
    p_compiled = Filter.compile prog filter;
    p_action = action;
    p_ring = (match action with Count -> None | _ -> Some (Ring.create ring));
    p_counter = Wet_obs.Metrics.counter ("watch." ^ name ^ ".matches");
    p_matches = 0;
    p_stopped = None;
  }

let name p = p.p_name

let filter p = p.p_filter

let action p = p.p_action

let matches p = p.p_matches

let ring p = p.p_ring

let stopped p = p.p_stopped

let capture p ~kind ~func ~block ~pos ~value ~addr ~ts =
  match p.p_ring with
  | None -> ()
  | Some r ->
    Ring.record r ~kind ~func ~block ~pos ~value ~addr ~ts
      ~wall_ns:(Wet_obs.Clock.now_ns ())

(* Matched: count, then act. Only the ring write reads a clock, and only
   [Capture]/sampled/pre-trigger matches reach it. *)
let fire p kind func block pos value addr ts =
  let m = p.p_matches + 1 in
  p.p_matches <- m;
  Wet_obs.Metrics.incr p.p_counter;
  match p.p_action with
  | Count -> ()
  | Capture -> capture p ~kind ~func ~block ~pos ~value ~addr ~ts
  | Sample n ->
    if (m - 1) mod n = 0 then capture p ~kind ~func ~block ~pos ~value ~addr ~ts
  | Stop_at k ->
    if p.p_stopped = None then begin
      capture p ~kind ~func ~block ~pos ~value ~addr ~ts;
      if m = k then p.p_stopped <- Some ts
    end

(* ------------------------------------------------------------------ *)
(* The armed dispatch closure                                          *)
(* ------------------------------------------------------------------ *)

let nop _ _ _ _ _ _ _ = ()

let dispatch = ref nop

let hot = ref false

let armed () = !hot

(* One closure per probe: mask test (fast reject) then the compiled
   predicate; [arm] chains them so the tracer pays a single indirect
   call per event however many probes are armed. *)
let one p =
  let mask = p.p_compiled.Filter.c_mask in
  let pred = p.p_compiled.Filter.c_pred in
  fun kind func block pos value addr ts ->
    let kb = 1 lsl kind in
    if mask land kb <> 0 && pred kb func block value addr then
      fire p kind func block pos value addr ts

let arm probes =
  (match probes with
   | [] -> dispatch := nop
   | [ p ] -> dispatch := one p
   | ps ->
     let fs = List.map one ps in
     dispatch :=
       fun kind func block pos value addr ts ->
         List.iter (fun f -> f kind func block pos value addr ts) fs);
  hot := probes <> []

let disarm () =
  dispatch := nop;
  hot := false

let emit kind func block pos value addr ts =
  !dispatch kind func block pos value addr ts

let with_armed probes f =
  arm probes;
  Fun.protect ~finally:disarm f
