module Cursor = Wet_bistream.Stream.Cursor
module Ex = Wet_watch.Explain
module S = Wet.Session

(* Placeholders for salvaged-away sections are empty ([[||]] dep slots,
   empty out-edge lists), which a walk would silently treat as "no
   dependences" — a wrong slice, not an error. Check damage up front. *)
let need (t : Wet.t) sec =
  if Wet.damaged t sec then raise (Wet.Missing_stream sec)

(* A criterion names an execution the container holds. *)
let check_criterion what (t : Wet.t) (c, i) =
  let ncopies = Wet.num_copies t in
  if c < 0 || c >= ncopies then
    Wet_error.fail Query
      "%s: criterion (copy %d, instance %d) out of range: copies are [0,%d)"
      what c i ncopies;
  let nexec = (Wet.node_of_copy t c).Wet.n_nexec in
  if i < 0 || i >= nexec then
    Wet_error.fail Query
      "%s: criterion (copy %d, instance %d) out of range: instances of copy \
       %d are [0,%d)"
      what c i c nexec

type result = {
  instances : int;
  copies : int;
  stmts : int;
  truncated : bool;
}

(* A set of (copy, instance) pairs: one bitset per copy, made when the
   set first reaches the copy, with a bit per execution of its node. *)
module Iset = struct
  type t = { wet : Wet.t; bits : Bytes.t array }

  (* The slot of a copy not yet reached, told apart by physical
     equality. *)
  let unreached = Bytes.make 1 '\000'

  let make wet = { wet; bits = Array.make (Wet.num_copies wet) unreached }

  let mem s c i =
    let b = s.bits.(c) in
    b != unreached
    && Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

  (* Adds [(c, i)]; [false] if it was there already. *)
  let add s c i =
    if s.bits.(c) == unreached then begin
      let nexec = (Wet.node_of_copy s.wet c).Wet.n_nexec in
      s.bits.(c) <- Bytes.make ((nexec + 7) lsr 3) '\000'
    end;
    let b = s.bits.(c) and k = i lsr 3 and bit = 1 lsl (i land 7) in
    let byte = Char.code (Bytes.get b k) in
    if byte land bit <> 0 then false
    else begin
      Bytes.set b k (Char.unsafe_chr (byte lor bit));
      true
    end
end

(* The instances counted into a result, with flags for the distinct
   copies and statements among them. *)
type counts = {
  copy_seen : Bytes.t;
  stmt_seen : Bytes.t;
  mutable n_instances : int;
  mutable n_copies : int;
  mutable n_stmts : int;
}

let counts (t : Wet.t) =
  {
    copy_seen = Bytes.make (Wet.num_copies t) '\000';
    stmt_seen = Bytes.make (Array.length t.Wet.stmt_copies) '\000';
    n_instances = 0;
    n_copies = 0;
    n_stmts = 0;
  }

let count (t : Wet.t) k c =
  k.n_instances <- k.n_instances + 1;
  if Bytes.get k.copy_seen c = '\000' then begin
    Bytes.set k.copy_seen c '\001';
    k.n_copies <- k.n_copies + 1;
    let st = t.Wet.copy_stmt.(c) in
    if Bytes.get k.stmt_seen st = '\000' then begin
      Bytes.set k.stmt_seen st '\001';
      k.n_stmts <- k.n_stmts + 1
    end
  end

let result k ~truncated =
  {
    instances = k.n_instances;
    copies = k.n_copies;
    stmts = k.n_stmts;
    truncated;
  }

(* Depth-first from [(c0, i0)]: pop an instance, count it, then
   [expand] it, which pushes each instance it depends on (or that
   depends on it) that the walk has not reached yet. The stack holds
   (copy, instance) pairs side by side. *)
let walk ~max_instances ~f (t : Wet.t) c0 i0 ~expand =
  let reached = Iset.make t in
  let k = counts t in
  let stack = ref (Array.make 64 0) and sp = ref 0 in
  let push c i =
    if Iset.add reached c i then begin
      if !sp = Array.length !stack then begin
        let bigger = Array.make (2 * !sp) 0 in
        Array.blit !stack 0 bigger 0 !sp;
        stack := bigger
      end;
      !stack.(!sp) <- c;
      !stack.(!sp + 1) <- i;
      sp := !sp + 2
    end
  in
  push c0 i0;
  let truncated = ref false in
  while !sp > 0 && not !truncated do
    sp := !sp - 2;
    let c = !stack.(!sp) and i = !stack.(!sp + 1) in
    (match f with Some f -> f c i | None -> ());
    count t k c;
    match max_instances with
    | Some m when k.n_instances >= m -> truncated := true
    | Some _ | None -> expand c i push
  done;
  result k ~truncated:!truncated

module Session = struct
  let backward ?max_instances ?f s c0 i0 =
    let t = S.wet s in
    need t "labels.deps";
    check_criterion "slice.backward" t (c0, i0);
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
    let t = S.wet s in
    need t "labels.deps";
    check_criterion "slice.forward" t (c0, i0);
    Ex.query ~recorder:(S.recorder s) "slice.forward";
    let expand c i push =
      List.iter (fun cc -> push cc i) t.Wet.copy_local_out.(c);
      List.iter
        (fun (e : Wet.edge) ->
          (* producer-instance streams are not sorted, so scan them *)
          let dst, src = S.label_cursors s e.Wet.e_labels in
          Cursor.seek src 0;
          for j = 0 to Cursor.length src - 1 do
            if Cursor.step_forward src = i then
              push e.Wet.e_dst (Cursor.read_at dst j)
          done)
        t.Wet.copy_remote_out.(c)
    in
    walk ~max_instances ~f t c0 i0 ~expand

  (* The backward walk from [sink], counting only the instances the
     forward walk from [source] handed to its [f] — not every instance
     it reached, so a truncated forward walk bounds the chop too. *)
  let chop ?max_instances ?f s ~source ~sink =
    let t = S.wet s in
    check_criterion "slice.chop source" t source;
    check_criterion "slice.chop sink" t sink;
    Ex.query ~recorder:(S.recorder s) "slice.chop";
    let sc, si = source and kc, ki = sink in
    let fwd = Iset.make t in
    ignore
      (forward ?max_instances s sc si ~f:(fun c i ->
           ignore (Iset.add fwd c i)));
    let k = counts t in
    let back =
      backward ?max_instances s kc ki ~f:(fun c i ->
          if Iset.mem fwd c i then begin
            (match f with Some f -> f c i | None -> ());
            count t k c
          end)
    in
    result k ~truncated:back.truncated
end
