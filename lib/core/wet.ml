module Stream = Wet_bistream.Stream
module Telemetry = Wet_bistream.Telemetry
module Cursor = Stream.Cursor
module Instr = Wet_ir.Instr
module Ex = Wet_watch.Explain

type seq = Stream.t

type copy_id = int

type node_id = int

type dep_source =
  | No_dep
  | Local of copy_id
  | Remote of edge list

and edge = {
  e_src : copy_id;
  e_dst : copy_id;
  e_slot : int;
  e_labels : labels;
}

and labels = {
  l_id : int;
  l_dst : seq;
  l_src : seq;
  l_len : int;
}

type group = {
  g_members : copy_id array;
  g_nsources : int;
  g_pattern : seq option;
  g_nuniq : int;
}

type node = {
  n_id : node_id;
  n_func : int;
  n_path : int;
  n_blocks : int array;
  n_stmts : int array;
  n_block_start : int array;
  n_copy_base : copy_id;
  n_nexec : int;
  n_ts : seq;
  n_succs : node_id array;
  n_preds : node_id array;
  n_groups : group array;
  n_cd : dep_source array;
}

type stats = {
  stmts_executed : int;
  block_execs : int;
  path_execs : int;
  def_execs : int;
  dep_instances : int;
  cd_instances : int;
  local_dep_instances : int;
  shared_label_values : int;
}

(* The container ([t]) is immutable once built, and the streams inside
   are pristine compressed bodies. All traversal state — cursor
   positions, bidir window clones, telemetry tallies, entry-point
   recorders — lives in [session] values. *)
type t = {
  program : Wet_ir.Program.t;
  analysis : Wet_cfg.Program_analysis.t;
  nodes : node array;
  copy_node : node_id array;
  copy_stmt : int array;
  copy_uvals : seq option array;
  copy_group : int array;
  copy_deps : dep_source array array;
  copy_local_out : copy_id list array;
  copy_remote_out : edge list array;
  stmt_copies : copy_id list array;
  first_node : node_id;
  last_node : node_id;
  stats : stats;
  tier : [ `Tier1 | `Tier2 ];
  damage : string list;
}

(* One reader's traversal state over a shared container: a cursor per
   stream, each minted when first used (per node, per copy, per
   (node, group), and per label by [l_id]), the ledger tally every
   cursor counts its steps in, and the recorder its queries note their
   entry points in.
   Single-owner; the container underneath may be shared freely. *)
type session = {
  s_wet : t;
  s_tally : Telemetry.tally;
  s_recorder : Ex.recorder;
  s_ts : Cursor.t array;  (* per node *)
  s_uvals : Cursor.t array;  (* per copy *)
  s_patterns : Cursor.t array array;  (* per node, per group *)
  s_labels : (int, Cursor.t * Cursor.t) Hashtbl.t;  (* l_id -> dst, src *)
}

exception Missing_stream of string

let damaged t sec = List.mem sec t.damage

let need t sec = if damaged t sec then raise (Missing_stream sec)

let num_copies t = Array.length t.copy_node

let node_of_copy t c = t.nodes.(t.copy_node.(c))

let copy_offset t c = c - (node_of_copy t c).n_copy_base

let instr_of_copy t c = Wet_ir.Program.instr t.program t.copy_stmt.(c)

let copies_of_stmt t s = t.stmt_copies.(s)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* The slot of a cursor not yet minted, told apart by physical
   equality; no step is ever taken on it. *)
let unminted =
  Cursor.make ~tally:(Telemetry.make ()) ~label:0 (Stream.compress [||])

let open_session ?(strict = false) ?tally ?recorder t =
  if strict && t.damage <> [] then
    Wet_error.fail Query "open_session: container damaged (%s)"
      (String.concat ", " t.damage);
  let tally = match tally with Some t -> t | None -> Telemetry.make () in
  let recorder =
    match recorder with Some r -> r | None -> Ex.make_recorder ()
  in
  {
    s_wet = t;
    s_tally = tally;
    s_recorder = recorder;
    s_ts = Array.make (Array.length t.nodes) unminted;
    s_uvals = Array.make (Array.length t.copy_uvals) unminted;
    s_patterns =
      Array.map (fun n -> Array.make (Array.length n.n_groups) unminted) t.nodes;
    s_labels = Hashtbl.create 64;
  }

module Session = struct
  type nonrec t = session

  let wet s = s.s_wet

  let tally s = s.s_tally

  let recorder s = s.s_recorder

  (* A cursor of this session over [body], its ledger row named
     [stream]. *)
  let cursor s body stream =
    Cursor.make ~tally:s.s_tally ~label:(Ex.label stream) body

  (* Mint the cursor of slot [i]. Callers test the slot first, so the
     stream name is built only here. *)
  let mint s slots i body stream =
    let c = cursor s body stream in
    slots.(i) <- c;
    c

  let ts_cursor s (n : node) =
    let c = s.s_ts.(n.n_id) in
    if c != unminted then c else mint s s.s_ts n.n_id n.n_ts (Ex.Ts n.n_id)

  let label_cursors s (l : labels) =
    match Hashtbl.find_opt s.s_labels l.l_id with
    | Some p -> p
    | None ->
      let p =
        ( cursor s l.l_dst (Ex.Label_dst l.l_id),
          cursor s l.l_src (Ex.Label_src l.l_id) )
      in
      Hashtbl.add s.s_labels l.l_id p;
      p

  (* Timestamp-cursor primitives for the control-flow walks. *)

  let ts_pos s n = Cursor.pos (ts_cursor s n)

  let ts_seek s n k = Cursor.seek (ts_cursor s n) k

  let ts_step_forward s n = Cursor.step_forward (ts_cursor s n)

  let ts_step_backward s n = Cursor.step_backward (ts_cursor s n)

  let ts_peek_forward s n = Cursor.peek_forward (ts_cursor s n)

  let ts_peek_backward s n = Cursor.peek_backward (ts_cursor s n)

  let ts_find s n v = Cursor.find_ascending (ts_cursor s n) v

  (* Label queries. *)

  let value_of_copy s c i =
    let t = s.s_wet in
    need t "labels.values";
    match t.copy_uvals.(c) with
    | None -> Wet_error.fail Query "value_of_copy: copy %d has no def port" c
    | Some body -> (
      let uvals =
        let u = s.s_uvals.(c) in
        if u != unminted then u else mint s s.s_uvals c body (Ex.Uvals c)
      in
      let node = node_of_copy t c in
      let g = t.copy_group.(c) in
      match node.n_groups.(g).g_pattern with
      | None -> Cursor.read_at uvals 0
      | Some body ->
        let slots = s.s_patterns.(node.n_id) in
        let pattern =
          let p = slots.(g) in
          if p != unminted then p
          else mint s slots g body (Ex.Pattern (node.n_id, g))
        in
        Cursor.read_at uvals (Cursor.read_at pattern i))

  (* Shared by data and control slots: locate the consumer instance on
     each candidate edge's dst label, then read the aligned producer
     instance off the src label. *)
  let search_edges s edges i =
    let rec search = function
      | [] -> None
      | e :: rest -> (
        let dst, src = label_cursors s e.e_labels in
        match Cursor.find_ascending dst i with
        | Some j -> Some (e.e_src, Cursor.read_at src j)
        | None -> search rest)
    in
    search edges

  let resolve_dep s c i slot =
    let t = s.s_wet in
    need t "labels.deps";
    match t.copy_deps.(c).(slot) with
    | No_dep -> None
    | Local p -> Some (p, i)
    | Remote edges -> search_edges s edges i

  let resolve_cd s c i =
    let t = s.s_wet in
    let node = node_of_copy t c in
    let off = copy_offset t c in
    (* Find the block position owning this statement offset. *)
    let rec block_pos p =
      if p + 1 < Array.length node.n_block_start
         && node.n_block_start.(p + 1) <= off
      then block_pos (p + 1)
      else p
    in
    match node.n_cd.(block_pos 0) with
    | No_dep -> None
    | Local p -> Some (p, i)
    | Remote edges -> search_edges s edges i

  let timestamp s c i =
    let t = s.s_wet in
    need t "labels.ts";
    Cursor.read_at (ts_cursor s (node_of_copy t c)) i
end

(* ------------------------------------------------------------------ *)
(* Structural validation                                              *)
(* ------------------------------------------------------------------ *)

(* Invariant checker used after salvage loads and by [wet_cli fsck].
   Returns human-readable violations; [[]] means the structure is
   internally consistent. Checks touching a damaged (salvaged-away)
   section are skipped — placeholders are not violations. *)
let validate t =
  let errs = ref [] in
  let nerrs = ref 0 in
  let err fmt =
    Printf.ksprintf
      (fun s ->
        incr nerrs;
        if !nerrs <= 100 then errs := s :: !errs)
      fmt
  in
  let ncopies = Array.length t.copy_node in
  let nnodes = Array.length t.nodes in
  let check_len name l =
    if l <> ncopies then
      err "%s has %d entries, expected %d (one per copy)" name l ncopies
  in
  check_len "copy_stmt" (Array.length t.copy_stmt);
  check_len "copy_uvals" (Array.length t.copy_uvals);
  check_len "copy_group" (Array.length t.copy_group);
  check_len "copy_deps" (Array.length t.copy_deps);
  check_len "copy_local_out" (Array.length t.copy_local_out);
  check_len "copy_remote_out" (Array.length t.copy_remote_out);
  let total_execs = t.stats.path_execs in
  (* Pure decode: reads the representation without touching any cursor. *)
  let snapshot = Stream.contents in
  let check_labels ctx (l : labels) =
    if Stream.length l.l_dst <> l.l_len || Stream.length l.l_src <> l.l_len
    then err "%s: label %d stream lengths differ from l_len=%d" ctx l.l_id l.l_len
    else begin
      let dst = snapshot l.l_dst in
      for j = 1 to l.l_len - 1 do
        if dst.(j) <= dst.(j - 1) then
          err "%s: label %d consumer instances not strictly ascending at %d"
            ctx l.l_id j
      done
    end
  in
  let check_edge ctx (e : edge) =
    if e.e_src < 0 || e.e_src >= ncopies || e.e_dst < 0 || e.e_dst >= ncopies
    then err "%s: edge endpoints (%d,%d) out of copy range" ctx e.e_src e.e_dst
    else begin
      check_labels ctx e.e_labels;
      (* dependence edges must reference live execution instances *)
      let src_nexec = t.nodes.(t.copy_node.(e.e_src)).n_nexec in
      let dst_nexec = t.nodes.(t.copy_node.(e.e_dst)).n_nexec in
      let dst = snapshot e.e_labels.l_dst and src = snapshot e.e_labels.l_src in
      Array.iter
        (fun i ->
          if i < 0 || i >= dst_nexec then
            err "%s: label %d consumer instance %d outside [0,%d)" ctx
              e.e_labels.l_id i dst_nexec)
        dst;
      Array.iter
        (fun i ->
          if i < 0 || i >= src_nexec then
            err "%s: label %d producer instance %d outside [0,%d)" ctx
              e.e_labels.l_id i src_nexec)
        src
    end
  in
  let check_source ctx = function
    | No_dep -> ()
    | Local p ->
      if p < 0 || p >= ncopies then err "%s: local producer %d out of range" ctx p
    | Remote es -> List.iter (check_edge ctx) es
  in
  (* global timestamp coverage: each of [1..path_execs] exactly once *)
  let seen =
    if total_execs >= 0 && not (damaged t "labels.ts") then
      Some (Bytes.make (total_execs + 1) '\000')
    else None
  in
  Array.iteri
    (fun id n ->
      let ctx = Printf.sprintf "node %d" id in
      if n.n_id <> id then err "%s: n_id is %d" ctx n.n_id;
      let nstmts = Array.length n.n_stmts in
      let nblocks = Array.length n.n_blocks in
      if Array.length n.n_block_start <> nblocks then
        err "%s: block_start/blocks length mismatch" ctx;
      Array.iteri
        (fun bp s ->
          if s < 0 || s > nstmts || (bp > 0 && s <= n.n_block_start.(bp - 1))
          then err "%s: block_start not ascending at %d" ctx bp)
        n.n_block_start;
      if nblocks > 0 && n.n_block_start.(0) <> 0 then
        err "%s: first block does not start at statement 0" ctx;
      if n.n_copy_base < 0 || n.n_copy_base + nstmts > ncopies then
        err "%s: copies [%d,%d) outside copy range" ctx n.n_copy_base
          (n.n_copy_base + nstmts)
      else
        for o = 0 to nstmts - 1 do
          let c = n.n_copy_base + o in
          if t.copy_node.(c) <> id then
            err "%s: copy %d maps to node %d" ctx c t.copy_node.(c);
          if Array.length t.copy_stmt = ncopies && t.copy_stmt.(c) <> n.n_stmts.(o)
          then err "%s: copy %d statement mismatch" ctx c
        done;
      Array.iter
        (fun s ->
          if s < 0 || s >= nnodes then err "%s: successor %d out of range" ctx s
          else if not (Array.exists (fun p -> p = id) t.nodes.(s).n_preds) then
            err "%s: successor %d lacks the symmetric predecessor" ctx s)
        n.n_succs;
      (if not (damaged t "labels.ts") then begin
         if Stream.length n.n_ts <> n.n_nexec then
           err "%s: %d timestamps for %d executions" ctx
             (Stream.length n.n_ts) n.n_nexec
         else begin
           let ts = snapshot n.n_ts in
           Array.iteri
             (fun i v ->
               if i > 0 && v <= ts.(i - 1) then
                 err "%s: timestamps not strictly increasing at %d" ctx i;
               if v < 1 || v > total_execs then
                 err "%s: timestamp %d outside [1,%d]" ctx v total_execs
               else
                 Option.iter
                   (fun b ->
                     if Bytes.get b v <> '\000' then
                       err "%s: timestamp %d already used" ctx v
                     else Bytes.set b v '\001')
                   seen)
             ts
         end
       end);
      Array.iter
        (fun g ->
          Array.iter
            (fun m ->
              if m < n.n_copy_base || m >= n.n_copy_base + nstmts then
                err "%s: group member %d outside the node" ctx m)
            g.g_members;
          match g.g_pattern with
          | None -> ()
          | Some p ->
            if Stream.length p <> n.n_nexec then
              err "%s: group pattern length %d <> nexec %d" ctx
                (Stream.length p) n.n_nexec
            else if not (damaged t "labels.values") then
              Array.iter
                (fun v ->
                  if v < 0 || v >= g.g_nuniq then
                    err "%s: pattern index %d outside [0,%d)" ctx v g.g_nuniq)
                (snapshot p))
        n.n_groups;
      Array.iteri
        (fun bp src -> check_source (Printf.sprintf "%s cd[%d]" ctx bp) src)
        n.n_cd)
    t.nodes;
  Option.iter
    (fun b ->
      for v = 1 to total_execs do
        if Bytes.get b v = '\000' then err "timestamp %d never assigned" v
      done)
    seen;
  (if not (damaged t "labels.values") && Array.length t.copy_uvals = ncopies
   then
     Array.iteri
       (fun c u ->
         match u with
         | None -> ()
         | Some _ when t.copy_group.(c) < 0 ->
           err "copy %d has values but no group" c
         | Some _ -> ())
       t.copy_uvals);
  (if not (damaged t "labels.deps") && Array.length t.copy_deps = ncopies then
     Array.iteri
       (fun c slots ->
         let k = Instr.dyn_use_count (instr_of_copy t c) in
         if Array.length slots <> k then
           err "copy %d: %d dependence slots, expected %d" c
             (Array.length slots) k
         else
           Array.iteri
             (fun s src ->
               check_source (Printf.sprintf "copy %d slot %d" c s) src)
             slots)
       t.copy_deps);
  (if not (damaged t "index.out") && Array.length t.copy_remote_out = ncopies
   then
     Array.iteri
       (fun c es ->
         List.iter
           (fun (e : edge) ->
             if e.e_src <> c then
               err "copy %d: out-edge claims source %d" c e.e_src)
           es)
       t.copy_remote_out);
  (let total = Array.fold_left (fun a l -> a + List.length l) 0 t.stmt_copies in
   if total <> ncopies then
     err "stmt_copies indexes %d copies, expected %d" total ncopies;
   Array.iteri
     (fun s cs ->
       List.iter
         (fun c ->
           if c < 0 || c >= ncopies then
             err "stmt %d: copy %d out of range" s c
           else if Array.length t.copy_stmt = ncopies && t.copy_stmt.(c) <> s
           then err "stmt %d: copy %d belongs to stmt %d" s c t.copy_stmt.(c))
         cs)
     t.stmt_copies);
  if !nerrs > 100 then
    errs := Printf.sprintf "... and %d more violations" (!nerrs - 100) :: !errs;
  List.rev !errs
