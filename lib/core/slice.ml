module Cursor = Wet_bistream.Stream.Cursor
module Ex = Wet_watch.Explain
module S = Wet.Session

(* Slice latency histograms (log-scale nanoseconds). *)
let h_backward = Wet_obs.Metrics.histogram "slice.backward_ns"

let h_forward = Wet_obs.Metrics.histogram "slice.forward_ns"

let h_chop = Wet_obs.Metrics.histogram "slice.chop_ns"

(* Placeholders for salvaged-away sections are empty ([[||]] dep slots,
   empty out-edge lists), which a walk would silently treat as "no
   dependences" — a wrong slice, not an error. Check damage up front. *)
let need (t : Wet.t) sec =
  if Wet.damaged t sec then raise (Wet.Missing_stream sec)

type result = {
  instances : int;
  copies : int;
  stmts : int;
  truncated : bool;
}

let walk ~max_instances ~f (t : Wet.t) c0 i0 ~expand =
  let visited = Hashtbl.create 1024 in
  let copies = Hashtbl.create 256 in
  let stmts = Hashtbl.create 256 in
  let work = ref [ (c0, i0) ] in
  let count = ref 0 in
  let truncated = ref false in
  let push c i =
    if not (Hashtbl.mem visited (c, i)) then begin
      Hashtbl.replace visited (c, i) ();
      work := (c, i) :: !work
    end
  in
  Hashtbl.replace visited (c0, i0) ();
  let continue_ = ref true in
  while !continue_ do
    match !work with
    | [] -> continue_ := false
    | (c, i) :: rest ->
      work := rest;
      incr count;
      (match f with Some f -> f c i | None -> ());
      Hashtbl.replace copies c ();
      Hashtbl.replace stmts t.Wet.copy_stmt.(c) ();
      (match max_instances with
       | Some m when !count >= m ->
         truncated := true;
         continue_ := false
       | Some _ | None -> expand c i push)
  done;
  {
    instances = !count;
    copies = Hashtbl.length copies;
    stmts = Hashtbl.length stmts;
    truncated = !truncated;
  }

module Session = struct
  let backward ?max_instances ?f s c0 i0 =
    Wet_obs.Metrics.time h_backward @@ fun () ->
    let t = S.wet s in
    need t "labels.deps";
    Ex.query ~recorder:(S.recorder s) "slice.backward";
    let expand c i push =
      let nslots = Array.length t.Wet.copy_deps.(c) in
      for slot = 0 to nslots - 1 do
        match S.resolve_dep s c i slot with
        | Some (pc, pi) -> push pc pi
        | None -> ()
      done;
      match S.resolve_cd s c i with
      | Some (pc, pi) -> push pc pi
      | None -> ()
    in
    walk ~max_instances ~f t c0 i0 ~expand

  let forward ?max_instances ?f s c0 i0 =
    Wet_obs.Metrics.time h_forward @@ fun () ->
    let t = S.wet s in
    need t "index.out";
    Ex.query ~recorder:(S.recorder s) "slice.forward";
    let expand c i push =
      List.iter (fun cc -> push cc i) t.Wet.copy_local_out.(c);
      List.iter
        (fun (e : Wet.edge) ->
          (* producer-instance streams are not sorted, so scan them *)
          let dst, src = S.label_cursors s e.Wet.e_labels in
          Cursor.seek src 0;
          for j = 0 to e.Wet.e_labels.Wet.l_len - 1 do
            if Cursor.step_forward src = i then
              push e.Wet.e_dst (Cursor.read_at dst j)
          done)
        t.Wet.copy_remote_out.(c)
    in
    walk ~max_instances ~f t c0 i0 ~expand

  let chop ?max_instances ?f s ~source ~sink =
    Wet_obs.Metrics.time h_chop @@ fun () ->
    let t = S.wet s in
    Ex.query ~recorder:(S.recorder s) "slice.chop";
    let sc, si = source and kc, ki = sink in
    let fwd = Hashtbl.create 256 in
    ignore
      (forward ?max_instances s sc si ~f:(fun c i ->
           Hashtbl.replace fwd (c, i) ()));
    let count = ref 0 in
    let copies = Hashtbl.create 64 in
    let stmts = Hashtbl.create 64 in
    let back =
      backward ?max_instances s kc ki ~f:(fun c i ->
          if Hashtbl.mem fwd (c, i) then begin
            incr count;
            (match f with Some f -> f c i | None -> ());
            Hashtbl.replace copies c ();
            Hashtbl.replace stmts t.Wet.copy_stmt.(c) ()
          end)
    in
    {
      instances = !count;
      copies = Hashtbl.length copies;
      stmts = Hashtbl.length stmts;
      truncated = back.truncated;
    }
end
