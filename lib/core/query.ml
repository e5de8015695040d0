module Instr = Wet_ir.Instr
module Ex = Wet_watch.Explain
module S = Wet.Session
module Cursor = Wet_bistream.Stream.Cursor

type direction = Forward | Backward

(* Control-flow reconstruction walks the per-node timestamp streams; on
   a salvage load that lost [labels.ts] those are empty placeholders,
   so fail cleanly up front instead of deep inside a cursor step. *)
let need (t : Wet.t) sec =
  if Wet.damaged t sec then raise (Wet.Missing_stream sec)

let emit_blocks f (n : Wet.node) =
  Array.iter (fun b -> f n.Wet.n_func b) n.Wet.n_blocks

let emit_blocks_rev f (n : Wet.node) =
  for i = Array.length n.Wet.n_blocks - 1 downto 0 do
    f n.Wet.n_func n.Wet.n_blocks.(i)
  done

(* Structure lookups: read only the immutable container — no cursor
   moves, so no session required. *)

let copies_matching (t : Wet.t) pred =
  let acc = ref [] in
  for c = Wet.num_copies t - 1 downto 0 do
    if pred (Wet.instr_of_copy t c) then acc := c :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Session queries (the primary implementations)                      *)
(* ------------------------------------------------------------------ *)

module Session = struct
  let park s dir =
    let t = S.wet s in
    need t "labels.ts";
    Array.iter
      (fun (n : Wet.node) ->
        match dir with
        | Forward -> Cursor.seek (S.ts_cursor s n) 0
        | Backward -> Cursor.seek (S.ts_cursor s n) n.Wet.n_nexec)
      t.Wet.nodes

  let control_flow s dir ~f =
    let t = S.wet s in
    need t "labels.ts";
    Ex.query ~recorder:(S.recorder s) "query.control_flow";
    let total = t.Wet.stats.Wet.path_execs in
    let blocks = ref 0 in
    if total > 0 then begin
      match dir with
      | Forward ->
        let cur = ref t.Wet.nodes.(t.Wet.first_node) in
        ignore (Cursor.step_forward (S.ts_cursor s !cur));
        emit_blocks f !cur;
        blocks := Array.length !cur.Wet.n_blocks;
        for ts = 2 to total do
          (* exactly one successor holds the next timestamp *)
          let next = ref None in
          Array.iter
            (fun sc ->
              if !next = None then begin
                let n = t.Wet.nodes.(sc) in
                let c = S.ts_cursor s n in
                if Cursor.pos c < n.Wet.n_nexec && Cursor.peek_forward c = ts
                then next := Some n
              end)
            !cur.Wet.n_succs;
          match !next with
          | None ->
            Wet_error.fail Query
              "control_flow: timestamp chain broken (cursors parked?)"
          | Some n ->
            ignore (Cursor.step_forward (S.ts_cursor s n));
            emit_blocks f n;
            blocks := !blocks + Array.length n.Wet.n_blocks;
            cur := n
        done
      | Backward ->
        let cur = ref t.Wet.nodes.(t.Wet.last_node) in
        ignore (Cursor.step_backward (S.ts_cursor s !cur));
        emit_blocks_rev f !cur;
        blocks := Array.length !cur.Wet.n_blocks;
        for ts = total - 1 downto 1 do
          let next = ref None in
          Array.iter
            (fun pr ->
              if !next = None then begin
                let n = t.Wet.nodes.(pr) in
                let c = S.ts_cursor s n in
                if Cursor.pos c > 0 && Cursor.peek_backward c = ts then
                  next := Some n
              end)
            t.Wet.node_preds.(!cur.Wet.n_id);
          match !next with
          | None ->
            Wet_error.fail Query
              "control_flow: timestamp chain broken (cursors parked?)"
          | Some n ->
            ignore (Cursor.step_backward (S.ts_cursor s n));
            emit_blocks_rev f n;
            blocks := !blocks + Array.length n.Wet.n_blocks;
            cur := n
        done
    end;
    !blocks

  let values_of_copy s c ~f =
    let node = Wet.node_of_copy (S.wet s) c in
    for i = 0 to node.Wet.n_nexec - 1 do
      f (S.value_of_copy s c i)
    done

  let locate_time s ts =
    let t = S.wet s in
    need t "labels.ts";
    if ts < 1 || ts > t.Wet.stats.Wet.path_execs then None
    else begin
      Ex.query ~recorder:(S.recorder s) "query.locate_time";
      let found = ref None in
      Array.iter
        (fun (n : Wet.node) ->
          if !found = None then
            match Cursor.find_ascending (S.ts_cursor s n) ts with
            | Some i -> found := Some (n.Wet.n_id, i)
            | None -> ())
        t.Wet.nodes;
      !found
    end

  let control_flow_from s ~start_ts ~steps ~f =
    match locate_time s start_ts with
    | None ->
      Wet_error.fail Query "control_flow_from: timestamp out of range"
    | Some (nid, i) ->
      let t = S.wet s in
      Ex.query ~recorder:(S.recorder s) "query.control_flow_from";
      let total = t.Wet.stats.Wet.path_execs in
      let blocks = ref 0 in
      let cur = ref t.Wet.nodes.(nid) in
      (* position the start node's cursor just past its matching ts *)
      Cursor.seek (S.ts_cursor s !cur) (i + 1);
      emit_blocks f !cur;
      blocks := Array.length !cur.Wet.n_blocks;
      let last = min total (start_ts + steps) in
      for ts = start_ts + 1 to last do
        let next = ref None in
        Array.iter
          (fun sc ->
            if !next = None then begin
              let n = t.Wet.nodes.(sc) in
              (* neighbours may be parked anywhere: locate ts directly *)
              let c = S.ts_cursor s n in
              match Cursor.find_ascending c ts with
              | Some j ->
                Cursor.seek c (j + 1);
                next := Some n
              | None -> ()
            end)
          !cur.Wet.n_succs;
        match !next with
        | None ->
          Wet_error.fail Query "control_flow_from: timestamp chain broken"
        | Some n ->
          emit_blocks f n;
          blocks := !blocks + Array.length n.Wet.n_blocks;
          cur := n
      done;
      !blocks

  let load_values s ~f =
    let t = S.wet s in
    Ex.query ~recorder:(S.recorder s) "query.load_values";
    let loads =
      copies_matching t (function Instr.Load _ -> true | _ -> false)
    in
    let count = ref 0 in
    List.iter
      (fun c ->
        let node = Wet.node_of_copy t c in
        for i = 0 to node.Wet.n_nexec - 1 do
          f c (S.value_of_copy s c i);
          incr count
        done)
      loads;
    !count

  let addresses s ~f =
    let t = S.wet s in
    Ex.query ~recorder:(S.recorder s) "query.addresses";
    let mems = copies_matching t Instr.is_memory in
    let count = ref 0 in
    List.iter
      (fun c ->
        let node = Wet.node_of_copy t c in
        for i = 0 to node.Wet.n_nexec - 1 do
          (* The address is the value of the producer of operand slot 0
             (paper: "addresses are simply part of values"). *)
          (match S.resolve_dep s c i 0 with
           | Some (pc, pi) -> f c (S.value_of_copy s pc pi)
           | None -> f c 0);
          incr count
        done)
      mems;
    !count
end

(* ------------------------------------------------------------------ *)
(* Cost estimation (EXPLAIN side of EXPLAIN ANALYZE).                 *)
(* ------------------------------------------------------------------ *)

type class_estimate = {
  est_kind : string;  (* Explain stream class: ts/uvals/pattern/label.* *)
  est_steps : int;  (* predicted ledger steps: fwd + bwd, seeks' included *)
  est_exact : bool;  (* model is exact, not a lower bound *)
}

(* Lower bounds on what reading [n] values of copy [c] steps, per
   stream class: each value is a [read_at] of the copy's unique values,
   after one of its group's pattern when the group has one, and a
   [read_at] takes a step at least. *)
let value_reads (t : Wet.t) ~pattern ~uvals c n =
  if t.Wet.copy_uvals.(c) <> None then begin
    let node = Wet.node_of_copy t c in
    if t.Wet.node_patterns.(node.Wet.n_id).(t.Wet.copy_group.(c)) <> None then
      pattern := !pattern + n;
    uvals := !uvals + n
  end

(* Plan-time step predictions per query shape (the fingerprints the CLI
   stamps on profiled queries), in the ledger's steps. The control-flow
   walk is exact by construction — each path execution reveals exactly
   one timestamp, peeks are pure reads, and parking the cursors a
   finished walk left at their right ends rewinds a packed one from the
   template and indexes a raw one, neither a step — so estimated and
   actual agree to the step on both tiers, on a session's first walk and
   on every repeat. The value/address extractions are lower bounds read
   off the container's structure: an operand with no producer reads
   nothing, a Local producer reads no label, a producer whose group has
   no pattern reads no pattern stream, and the rest is one step per
   value read ([value_reads]). An address a Remote producer feeds is
   searched for on its edge's dst label, which on a raw label takes no
   step, so dst gets no bound above 0, and its producer instance is
   read off the src label. [at] and the slices have no model: what they
   read depends on where the timestamp or the dependences land, and
   neither [path_execs] nor [dep_instances] bounds it from either side
   (a bzip2 backward slice pays nearly five times [dep_instances], a
   gcc one under half). They and every unknown shape estimate nothing. *)
let estimate (t : Wet.t) shape =
  let execs = t.Wet.stats.Wet.path_execs in
  let bound est_kind est_steps = { est_kind; est_steps; est_exact = false } in
  match shape with
  | "trace/cf" -> [ { est_kind = "ts"; est_steps = execs; est_exact = true } ]
  | "trace/values" ->
    let pattern = ref 0 and uvals = ref 0 in
    List.iter
      (fun c ->
        value_reads t ~pattern ~uvals c (Wet.node_of_copy t c).Wet.n_nexec)
      (copies_matching t (function Instr.Load _ -> true | _ -> false));
    [ bound "pattern" !pattern; bound "uvals" !uvals ]
  | "trace/addresses" ->
    let src = ref 0 and pattern = ref 0 and uvals = ref 0 in
    List.iter
      (fun c ->
        let slots = t.Wet.copy_deps.(c) in
        if Array.length slots > 0 then
          match slots.(0) with
          | Wet.No_dep -> ()
          | Wet.Local p ->
            value_reads t ~pattern ~uvals p (Wet.node_of_copy t c).Wet.n_nexec
          | Wet.Remote edges ->
            List.iter
              (fun (e : Wet.edge) ->
                let n = Wet.Stream.length e.Wet.e_labels.Wet.l_dst in
                src := !src + n;
                value_reads t ~pattern ~uvals e.Wet.e_src n)
              edges)
      (copies_matching t Instr.is_memory);
    [
      bound "label.dst" 0;
      bound "label.src" !src;
      bound "pattern" !pattern;
      bound "uvals" !uvals;
    ]
  | _ -> []
