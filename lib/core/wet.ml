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
  n_succs : node_id array;
  n_groups : copy_id array array;
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
  node_ts : seq array;
  node_patterns : seq option array array;
  node_cd : dep_source array array;
  node_preds : node_id array array;
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
   stream owner, each minted when first used (per node, per copy, per
   (node, group), and per label by [l_id]), the ledger tally every
   cursor counts its steps in, and the recorder its queries note their
   entry points in. Owners of one shared body get a cursor each, so a
   query steps as it would if each stored its own.
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
(* Assembly: the stored parts, and the indexes derived from them      *)
(* ------------------------------------------------------------------ *)

(* The copy tables and indexes, and each node's predecessors, follow
   from the nodes and the dependence sources. The builder, the packer
   and the container all assemble a WET here, so the lists come out in
   one order: the nodes' control sources (node by node, block by block)
   before the copies' slots (copy by copy, slot by slot), each reference
   consed in turn. Everything read here is checked before use, so
   inconsistent input is an [Invalid_argument], never an index fault. *)
let make ~program ~analysis ~nodes ~node_ts ~node_patterns ~copy_uvals
    ~node_cd ~copy_deps ~first_node ~last_node ~stats ~tier ~damage =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let nnodes = Array.length nodes in
  let ncopies = Array.length copy_deps in
  let nstmts = Wet_ir.Program.num_stmts program in
  let expect what arr n whose =
    if Array.length arr <> n then
      bad "%d %s for %d %s" (Array.length arr) what n whose
  in
  expect "value slots" copy_uvals ncopies "copies";
  expect "timestamp streams" node_ts nnodes "nodes";
  expect "pattern rows" node_patterns nnodes "nodes";
  expect "control source rows" node_cd nnodes "nodes";
  let copy_node = Array.make ncopies 0 in
  let copy_stmt = Array.make ncopies 0 in
  let copy_group = Array.make ncopies (-1) in
  let stmt_copies = Array.make nstmts [] in
  let node_preds = Array.make nnodes [] in
  let next = ref 0 in
  Array.iteri
    (fun id n ->
      Array.iter
        (fun s ->
          if s < 0 || s >= nnodes then bad "node %d: successor %d outside" id s;
          node_preds.(s) <- id :: node_preds.(s))
        n.n_succs;
      let len = Array.length n.n_stmts in
      if n.n_copy_base <> !next || !next + len > ncopies then
        bad "node %d: copies [%d,%d) do not tile [0,%d)" id n.n_copy_base
          (n.n_copy_base + len) ncopies;
      next := !next + len;
      Array.iteri
        (fun o st ->
          if st < 0 || st >= nstmts then
            bad "node %d: statement %d outside [0,%d)" id st nstmts;
          let c = n.n_copy_base + o in
          copy_node.(c) <- id;
          copy_stmt.(c) <- st;
          stmt_copies.(st) <- c :: stmt_copies.(st))
        n.n_stmts;
      let ngroups = Array.length n.n_groups in
      if Array.length node_patterns.(id) <> ngroups then
        bad "node %d: %d patterns for %d groups" id
          (Array.length node_patterns.(id)) ngroups;
      Array.iteri
        (fun g members ->
          if members = [||] then bad "node %d: group %d has no member" id g;
          Array.iter
            (fun m ->
              if m < n.n_copy_base || m >= !next then
                bad "node %d: group member %d outside the node" id m;
              copy_group.(m) <- g)
            members)
        n.n_groups)
    nodes;
  if !next <> ncopies then bad "nodes hold %d copies, not %d" !next ncopies;
  let node n = n >= 0 && n < nnodes in
  if nnodes > 0 && not (node first_node && node last_node) then
    bad "first and last nodes (%d,%d) outside [0,%d)" first_node last_node
      nnodes;
  let copy_local_out = Array.make ncopies [] in
  let copy_remote_out = Array.make ncopies [] in
  let copy c = c >= 0 && c < ncopies in
  let index dst = function
    | No_dep -> ()
    | Local p ->
      if not (copy p) then bad "local producer %d out of range" p;
      copy_local_out.(p) <- dst :: copy_local_out.(p)
    | Remote es ->
      List.iter
        (fun e ->
          if not (copy e.e_src && copy e.e_dst) then
            bad "edge (%d,%d) out of range" e.e_src e.e_dst;
          copy_remote_out.(e.e_src) <- e :: copy_remote_out.(e.e_src))
        es
  in
  Array.iteri
    (fun id n ->
      Array.iteri
        (fun bp src ->
          let o =
            if bp < Array.length n.n_block_start then n.n_block_start.(bp)
            else -1
          in
          if o < 0 || o >= Array.length n.n_stmts then
            bad "node %d: control source %d has no block" id bp;
          index (n.n_copy_base + o) src)
        node_cd.(id))
    nodes;
  Array.iteri (fun c slots -> Array.iter (index c) slots) copy_deps;
  {
    program;
    analysis;
    nodes;
    node_ts;
    node_patterns;
    node_cd;
    node_preds = Array.map (fun ps -> Array.of_list (List.rev ps)) node_preds;
    copy_node;
    copy_stmt;
    copy_uvals;
    copy_group;
    copy_deps;
    copy_local_out;
    copy_remote_out;
    stmt_copies;
    first_node;
    last_node;
    stats;
    tier;
    damage;
  }

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
    if c != unminted then c
    else mint s s.s_ts n.n_id s.s_wet.node_ts.(n.n_id) (Ex.Ts n.n_id)

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
      match t.node_patterns.(node.n_id).(g) with
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
    need t "labels.deps";
    let node = node_of_copy t c in
    let off = copy_offset t c in
    (* Find the block position owning this statement offset. *)
    let rec block_pos p =
      if p + 1 < Array.length node.n_block_start
         && node.n_block_start.(p + 1) <= off
      then block_pos (p + 1)
      else p
    in
    match t.node_cd.(node.n_id).(block_pos 0) with
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
  let total_execs = t.stats.path_execs in
  (* Pure decode: reads the representation without touching any cursor. *)
  let snapshot = Stream.contents in
  (* dependence edges must pair equal numbers of live execution
     instances, consumers strictly ascending *)
  let check_edge ctx (e : edge) =
    let l = e.e_labels in
    let dst = snapshot l.l_dst and src = snapshot l.l_src in
    if Array.length dst <> Array.length src then
      err "%s: label %d pairs %d consumer with %d producer instances" ctx
        l.l_id (Array.length dst) (Array.length src);
    let live what nexec =
      Array.iter (fun i ->
          if i < 0 || i >= nexec then
            err "%s: label %d %s instance %d outside [0,%d)" ctx l.l_id what i
              nexec)
    in
    live "consumer" (node_of_copy t e.e_dst).n_nexec dst;
    live "producer" (node_of_copy t e.e_src).n_nexec src;
    for j = 1 to Array.length dst - 1 do
      if dst.(j) <= dst.(j - 1) then
        err "%s: label %d consumer instances not strictly ascending at %d" ctx
          l.l_id j
    done
  in
  let check_source ctx = function
    | No_dep | Local _ -> ()
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
      let cd = t.node_cd.(id) in
      if (not (damaged t "labels.deps")) && Array.length cd <> nblocks then
        err "%s: %d control sources for %d blocks" ctx (Array.length cd)
          nblocks;
      (if not (damaged t "labels.ts") then begin
         let ts = snapshot t.node_ts.(id) in
         if Array.length ts <> n.n_nexec then
           err "%s: %d timestamps for %d executions" ctx (Array.length ts)
             n.n_nexec
         else begin
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
      (* a pattern indexes its group's unique values, which every
         member holds one of per distinct input tuple *)
      (if not (damaged t "labels.values") then
         Array.iteri
           (fun g p ->
             let member = t.copy_uvals.(n.n_groups.(g).(0)) in
             let nuniq = Option.fold ~none:0 ~some:Stream.length member in
             Option.iter
               (fun p ->
                 let p = snapshot p in
                 if Array.length p <> n.n_nexec then
                   err "%s: group pattern length %d <> nexec %d" ctx
                     (Array.length p) n.n_nexec;
                 Array.iter
                   (fun v ->
                     if v < 0 || v >= nuniq then
                       err "%s: pattern index %d outside [0,%d)" ctx v nuniq)
                   p)
               p)
           t.node_patterns.(id));
      Array.iteri
        (fun bp src -> check_source (Printf.sprintf "%s cd[%d]" ctx bp) src)
        cd)
    t.nodes;
  Option.iter
    (fun b ->
      for v = 1 to total_execs do
        if Bytes.get b v = '\000' then err "timestamp %d never assigned" v
      done)
    seen;
  (if not (damaged t "labels.values") then
     Array.iteri
       (fun c u ->
         if u <> None && t.copy_group.(c) < 0 then
           err "copy %d has values but no group" c)
       t.copy_uvals);
  (if not (damaged t "labels.deps") then
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
  if !nerrs > 100 then
    errs := Printf.sprintf "... and %d more violations" (!nerrs - 100) :: !errs;
  List.rev !errs
