module Dyn = Wet_util.Dynarray_int
module Stream = Wet_bistream.Stream
module T = Wet_interp.Trace
module PA = Wet_cfg.Program_analysis
module BL = Wet_cfg.Ball_larus
module Instr = Wet_ir.Instr
module Program = Wet_ir.Program

(* ------------------------------------------------------------------ *)
(* Static structure of a node (one per executed Ball–Larus path).     *)
(* ------------------------------------------------------------------ *)

type source =
  | Src_slot of int * int  (* external operand: (offset, slot) *)
  | Src_input of int  (* an Input statement at this offset *)

type proto_group = {
  pg_sources : source array;
  pg_members : int array;  (* offsets with def ports, ascending *)
  pg_pattern : Dyn.t;
  pg_tuples : (int list, int) Hashtbl.t;
}

type proto = {
  p_id : int;
  p_func : int;
  p_path : int;
  p_blocks : int array;
  p_stmts : int array;  (* static statement ids, path order *)
  p_instrs : Instr.t array;
  p_block_start : int array;
  p_copy_base : int;
  p_slot_count : int array;  (* dyn_use_count per offset *)
  p_slot_base : int array;  (* global slot id of each offset's slot 0 *)
  p_cd_slot : int array;  (* global slot id per block position *)
  p_internal : int array array;
      (* per offset, per register slot: producing offset or -1 *)
  p_groups : proto_group array;
  p_offset_group : int array;  (* group index per offset, -1 for no def *)
  p_ts : Dyn.t;
  p_uvals : Dyn.t array;  (* per offset; unused when no def *)
  p_succs : (int, unit) Hashtbl.t;
  p_preds : (int, unit) Hashtbl.t;
  mutable p_nexec : int;
  (* scratch, reused across executions *)
  p_exec_pos : int array;  (* dynamic position per offset this exec *)
  p_exec_prod : int array array;  (* producer position per offset/slot *)
}

module IntSet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Observability: tier-1 construction and tier-2 packing counters.    *)
(* ------------------------------------------------------------------ *)

module Obs = Wet_obs.Metrics

let c_intern_misses = Obs.counter "build.intern.misses"

let c_intern_hits = Obs.counter "build.intern.hits"

let c_label_records = Obs.counter "build.labels.records"

let c_label_dedup_hits = Obs.counter "build.labels.dedup_hits"

let c_label_shared_values = Obs.counter "build.labels.shared_values"

let c_groups = Obs.counter "build.groups.count"

let c_group_members = Obs.counter "build.groups.members"

let c_group_uniq = Obs.counter "build.groups.unique_tuples"

let c_group_pattern = Obs.counter "build.groups.pattern_entries"

let c_shards = Obs.counter "build.shards"

let g_peak_live = Obs.gauge "build.peak_live_words"

let h_shard_events = Obs.histogram "build.shard_events"

(* Analyse the statically known structure of a path: which register
   slots are fed from inside the path, and the input groups (§3.2). *)
let make_proto ~next_slot ~analysis ~id ~copy_base func path =
  let prog = analysis.PA.program in
  let fn = prog.Program.funcs.(func) in
  let info = PA.fn analysis func in
  let blocks = Array.of_list (BL.blocks_of_path info.PA.bl path) in
  let stmts = Dyn.create () in
  let block_start = Array.make (Array.length blocks) 0 in
  Array.iteri
    (fun bp b ->
      block_start.(bp) <- Dyn.length stmts;
      Array.iteri
        (fun i _ -> Dyn.push stmts (Program.stmt_id prog func b i))
        fn.Wet_ir.Func.blocks.(b).Wet_ir.Func.instrs)
    blocks;
  let p_stmts = Dyn.to_array stmts in
  let instrs = Array.map (Program.instr prog) p_stmts in
  let n = Array.length instrs in
  let slot_count = Array.map Instr.dyn_use_count instrs in
  let slot_base = Array.make n 0 in
  for o = 0 to n - 1 do
    slot_base.(o) <- !next_slot;
    next_slot := !next_slot + slot_count.(o)
  done;
  let cd_slot =
    Array.map
      (fun _ ->
        let s = !next_slot in
        incr next_slot;
        s)
      blocks
  in
  (* Register slots resolved to their unique in-path reaching def. *)
  let last_def = Array.make fn.Wet_ir.Func.nregs (-1) in
  let internal =
    Array.mapi
      (fun o ins ->
        let regs = Instr.uses ins in
        let resolved =
          Array.make slot_count.(o) (-1)
          (* extra slots (memory, return link) stay external *)
        in
        List.iteri (fun s r -> resolved.(s) <- last_def.(r)) regs;
        (match Instr.def ins with
         | Some r -> last_def.(r) <- o
         | None -> ());
        resolved)
      instrs
  in
  (* Transitive input sources per offset. *)
  let src_ids = Hashtbl.create 16 in
  let src_list = Dyn.create () in
  let src_descr = ref [] in
  let intern src =
    match Hashtbl.find_opt src_ids src with
    | Some i -> i
    | None ->
      let i = Dyn.length src_list in
      Hashtbl.replace src_ids src i;
      Dyn.push src_list i;
      src_descr := src :: !src_descr;
      i
  in
  let srcs = Array.make n IntSet.empty in
  for o = 0 to n - 1 do
    let s = ref IntSet.empty in
    Array.iteri
      (fun slot producer ->
        if producer >= 0 then s := IntSet.union !s srcs.(producer)
        else s := IntSet.add (intern (Src_slot (o, slot))) !s)
      internal.(o);
    (match instrs.(o) with
     | Instr.Input _ -> s := IntSet.add (intern (Src_input o)) !s
     | _ -> ());
    srcs.(o) <- !s
  done;
  let descr = Array.of_list (List.rev !src_descr) in
  (* Group def-bearing offsets by source set, then merge proper subsets
     into their (first) superset. Constant groups (no sources) stay
     separate: merging them would only add pattern storage. *)
  let by_set = Hashtbl.create 16 in
  let groups = ref [] in
  let order = ref [] in
  for o = 0 to n - 1 do
    if Instr.has_def instrs.(o) then begin
      let key = IntSet.elements srcs.(o) in
      match Hashtbl.find_opt by_set key with
      | Some members -> members := o :: !members
      | None ->
        let members = ref [ o ] in
        Hashtbl.replace by_set key members;
        order := (key, members) :: !order
    end
  done;
  let initial = List.rev !order in
  let alive =
    Array.of_list
      (List.map (fun (k, m) -> (IntSet.of_list k, m, ref true)) initial)
  in
  let card (s, _, _) = IntSet.cardinal s in
  let idx = Array.init (Array.length alive) Fun.id in
  Array.sort (fun a b -> compare (card alive.(a)) (card alive.(b))) idx;
  Array.iter
    (fun i ->
      let set_i, members_i, alive_i = alive.(i) in
      if !alive_i && not (IntSet.is_empty set_i) then begin
        (* find any strict superset group and merge into it *)
        let merged = ref false in
        Array.iter
          (fun j ->
            if (not !merged) && j <> i then begin
              let set_j, members_j, alive_j = alive.(j) in
              if !alive_j
                 && IntSet.cardinal set_j > IntSet.cardinal set_i
                 && IntSet.subset set_i set_j
              then begin
                members_j := !members_i @ !members_j;
                alive_i := false;
                merged := true
              end
            end)
          idx
      end)
    idx;
  Array.iter
    (fun (set, members, alive) ->
      if !alive then
        groups :=
          {
            pg_sources =
              Array.of_list (List.map (fun i -> descr.(i)) (IntSet.elements set));
            pg_members = Array.of_list (List.sort compare !members);
            pg_pattern = Dyn.create ();
            pg_tuples = Hashtbl.create 64;
          }
          :: !groups)
    alive;
  let p_groups = Array.of_list (List.rev !groups) in
  let offset_group = Array.make n (-1) in
  Array.iteri
    (fun g pg -> Array.iter (fun o -> offset_group.(o) <- g) pg.pg_members)
    p_groups;
  {
    p_id = id;
    p_func = func;
    p_path = path;
    p_blocks = blocks;
    p_stmts;
    p_instrs = instrs;
    p_block_start = block_start;
    p_copy_base = copy_base;
    p_slot_count = slot_count;
    p_slot_base = slot_base;
    p_cd_slot = cd_slot;
    p_internal = internal;
    p_groups;
    p_offset_group = offset_group;
    p_ts = Dyn.create ();
    p_uvals = Array.map (fun _ -> Dyn.create ()) instrs;
    p_succs = Hashtbl.create 4;
    p_preds = Hashtbl.create 4;
    p_nexec = 0;
    p_exec_pos = Array.make n (-1);
    p_exec_prod = Array.map (fun c -> Array.make (max 1 c) (-1)) slot_count;
  }

(* ------------------------------------------------------------------ *)
(* Dependence slot state machine (shared by data and control slots).  *)
(* ------------------------------------------------------------------ *)

(* st_kind: -2 all events so far are same-node same-instance from
   [st_prod] starting at instance 0 (or unseen when st_count = 0);
   -1 tabled: events stored as labeled edges. *)

type label_builder = { lb_dst : Dyn.t; lb_src : Dyn.t }

type slot_tables = {
  mutable st_kind : Bytes.t;  (* 0 = consecutive-local/unseen, 1 = tabled *)
  mutable st_prod : int array;  (* producer copy while consecutive-local *)
  mutable st_count : int array;
  edges : (int * int, label_builder) Hashtbl.t;  (* (slot gid, producer copy) *)
  slot_producers : (int, int list ref) Hashtbl.t;  (* slot gid -> producers *)
}

let ensure_slots st n =
  let cap = Bytes.length st.st_kind in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let kind = Bytes.make cap' '\000' in
    Bytes.blit st.st_kind 0 kind 0 cap;
    let prod = Array.make cap' (-1) in
    Array.blit st.st_prod 0 prod 0 cap;
    let count = Array.make cap' 0 in
    Array.blit st.st_count 0 count 0 cap;
    st.st_kind <- kind;
    st.st_prod <- prod;
    st.st_count <- count
  end

let add_edge_event st gid producer dst_inst src_inst =
  let key = (gid, producer) in
  let lb =
    match Hashtbl.find_opt st.edges key with
    | Some lb -> lb
    | None ->
      let lb = { lb_dst = Dyn.create (); lb_src = Dyn.create () } in
      Hashtbl.replace st.edges key lb;
      (match Hashtbl.find_opt st.slot_producers gid with
       | Some l -> l := producer :: !l
       | None -> Hashtbl.replace st.slot_producers gid (ref [ producer ]));
      lb
  in
  Dyn.push lb.lb_dst dst_inst;
  Dyn.push lb.lb_src src_inst

(* The slot stops being uniformly local: materialise the pairs the
   Local representation was standing for. *)
let spill_local st gid =
  let producer = st.st_prod.(gid) in
  for k = 0 to st.st_count.(gid) - 1 do
    add_edge_event st gid producer k k
  done;
  Bytes.set st.st_kind gid '\001'

(* Record one dependence event: instance [inst] of the consumer slot
   [gid] consumed the producer instance [(pcopy, pinst)]; [local] means
   same node, same instance. [pcopy = -1] is a hole (no producer). *)
let slot_event st gid ~inst ~pcopy ~pinst ~local =
  if Bytes.get st.st_kind gid = '\001' then begin
    if pcopy >= 0 then add_edge_event st gid pcopy inst pinst
  end
  else if local && st.st_count.(gid) = inst
          && (st.st_count.(gid) = 0 || st.st_prod.(gid) = pcopy)
  then begin
    st.st_prod.(gid) <- pcopy;
    st.st_count.(gid) <- st.st_count.(gid) + 1
  end
  else begin
    if st.st_count.(gid) > 0 then spill_local st gid
    else Bytes.set st.st_kind gid '\001';
    if pcopy >= 0 then add_edge_event st gid pcopy inst pinst
  end

let raw arr = Stream.compress_with `Raw arr

(* ------------------------------------------------------------------ *)
(* Windowed event buffers.                                            *)
(*                                                                    *)
(* A [Win.t] is an int buffer addressed by a global, ever-growing     *)
(* index whose prefix can be dropped: the sink keeps only the window  *)
(* between the eviction boundary and the feed cursor, so buffering    *)
(* stays O(shard) while indices remain the dynamic positions the      *)
(* dependence events speak in.                                        *)
(* ------------------------------------------------------------------ *)

module Win = struct
  type t = {
    mutable base : int;  (* global index of arr.(0) *)
    mutable arr : int array;
    mutable len : int;
  }

  let create () = { base = 0; arr = Array.make 1024 0; len = 0 }

  (* one past the last pushed global index — i.e. the total fed count *)
  let end_ w = w.base + w.len

  let push w v =
    if w.len = Array.length w.arr then begin
      let arr = Array.make (2 * w.len) 0 in
      Array.blit w.arr 0 arr 0 w.len;
      w.arr <- arr
    end;
    w.arr.(w.len) <- v;
    w.len <- w.len + 1

  let mem w i = i >= w.base && i < w.base + w.len

  let get w i = w.arr.(i - w.base)

  let set w i v = w.arr.(i - w.base) <- v

  (* Drop the prefix [base, upto); keeps absolute indexing intact and
     returns the backing store to a small size when mostly empty. *)
  let drop_to w upto =
    if upto > w.base then begin
      let k = upto - w.base in
      let rem = w.len - k in
      Array.blit w.arr k w.arr 0 rem;
      w.len <- rem;
      w.base <- upto;
      if Array.length w.arr > 4096 && w.len * 4 < Array.length w.arr then begin
        let arr = Array.make (max 1024 (2 * w.len)) 0 in
        Array.blit w.arr 0 arr 0 w.len;
        w.arr <- arr
      end
    end
end

(* ------------------------------------------------------------------ *)
(* The streaming sink: replay + eager per-shard compression.          *)
(* ------------------------------------------------------------------ *)

module Sink = struct
  let default_shard_events = 65536

  (* Everything replay has accumulated, segregated from the runtime
     plumbing so a checkpoint is one [Marshal] of this record: no
     closures, no [PA.t] (re-derivable from the program), nothing
     process-specific. Within-snapshot sharing (protos reached from
     [proto_of], [proto_list] and [prev_proto] are the same blocks)
     survives the round trip because it is a single Marshal call. *)
  type state = {
    (* path interning *)
    proto_of : (int, proto) Hashtbl.t;
    mutable proto_list : proto list;
    mutable nprotos : int;
    next_slot : int ref;
    next_copy : int ref;
    st : slot_tables;
    (* buffered event windows (global FIFO indices) *)
    w_paths : Win.t;
    w_cd : Win.t;
    w_deps : Win.t;
    w_vals : Win.t;
    (* processed position -> (copy, instance); same eviction boundary *)
    w_copy : Win.t;
    w_inst : Win.t;
    (* positions below the eviction boundary that are still referencable *)
    mutable retained : (int, int * int * int) Hashtbl.t;
        (* pos -> (value, copy, inst) *)
    (* cursors *)
    mutable vals_fed : int;  (* statements fed (= positions) *)
    mutable paths_done : int;  (* path executions processed *)
    mutable cd_done : int;
    mutable deps_done : int;
    (* pending call patches, LIFO (calls nest) *)
    pending_vpos : Dyn.t;
    pending_slot : Dyn.t;
    (* forward references, resolved at finish *)
    pend_gid : Dyn.t;
    pend_inst : Dyn.t;
    pend_prod : Dyn.t;
    (* stats accumulators *)
    mutable def_execs : int;
    mutable dep_instances : int;
    mutable cd_instances : int;
    mutable first_node : int;
    mutable last_node : int;
    mutable prev_proto : proto option;
    (* events fed, of every kind: the resume watermark *)
    mutable fed : int;
    mutable events_since_flush : int;
    mutable shards : int;
  }

  type t = {
    analysis : PA.t;
    shard_events : int;
    track_peak : bool;
    s : state;
    (* durability hook, set by [Checkpoint.drive]: runs at the end of
       every [flush_shard], with the sink quiescent — the point to
       snapshot and journal *)
    mutable on_shard_flushed : (t -> unit) option;
    (* streaming machinery (rebuilt on resume, never marshalled) *)
    mutable live_iter : ((int -> unit) -> unit) option;
    mutable peak_live : int;
    mutable finished : bool;
  }

  let create ?(shard_events = default_shard_events) ?(track_peak = false)
      analysis =
    {
      analysis;
      shard_events = max 1 shard_events;
      track_peak;
      s =
        {
          proto_of = Hashtbl.create 256;
          proto_list = [];
          nprotos = 0;
          next_slot = ref 0;
          next_copy = ref 0;
          st =
            {
              st_kind = Bytes.make 1024 '\000';
              st_prod = Array.make 1024 (-1);
              st_count = Array.make 1024 0;
              edges = Hashtbl.create 4096;
              slot_producers = Hashtbl.create 4096;
            };
          w_paths = Win.create ();
          w_cd = Win.create ();
          w_deps = Win.create ();
          w_vals = Win.create ();
          w_copy = Win.create ();
          w_inst = Win.create ();
          retained = Hashtbl.create 1024;
          vals_fed = 0;
          paths_done = 0;
          cd_done = 0;
          deps_done = 0;
          pending_vpos = Dyn.create ();
          pending_slot = Dyn.create ();
          pend_gid = Dyn.create ();
          pend_inst = Dyn.create ();
          pend_prod = Dyn.create ();
          def_execs = 0;
          dep_instances = 0;
          cd_instances = 0;
          first_node = -1;
          last_node = -1;
          prev_proto = None;
          fed = 0;
          events_since_flush = 0;
          shards = 0;
        };
      on_shard_flushed = None;
      live_iter = None;
      peak_live = 0;
      finished = false;
    }

  (* ---------------- checkpointing ---------------- *)

  (* Everything replay has learned, none of the runtime plumbing:
     meaningful at any quiescent point, i.e. from [on_shard_flushed]. *)
  let snapshot t = Marshal.to_string t.s []

  (* The number of events consumed so far: where a fast-forwarded
     re-execution must start delivering again. *)
  let watermark t = t.s.fed

  (* A sink rebuilt from a [snapshot]; [analysis] must come from the
     program the snapshot was built from. *)
  let resume_from ~shard_events ~snapshot analysis =
    let s : state =
      try Marshal.from_string snapshot 0
      with Failure _ ->
        Wet_error.fail Wet_error.Journal "undecodable checkpoint record"
    in
    {
      analysis;
      shard_events = max 1 shard_events;
      track_peak = false;
      s;
      on_shard_flushed = None;
      live_iter = None;
      peak_live = 0;
      finished = false;
    }

  let check_open t what =
    if t.finished then Wet_error.fail Wet_error.Build "%s after finish" what

  let get_proto t key =
    let s = t.s in
    match Hashtbl.find_opt s.proto_of key with
    | Some p -> p
    | None ->
      let func, path = T.decode_path key in
      let p =
        make_proto ~next_slot:s.next_slot ~analysis:t.analysis ~id:s.nprotos
          ~copy_base:!(s.next_copy) func path
      in
      s.next_copy := !(s.next_copy) + Array.length p.p_stmts;
      Hashtbl.replace s.proto_of key p;
      s.proto_list <- p :: s.proto_list;
      s.nprotos <- s.nprotos + 1;
      p

  (* (copy, instance) of an already-replayed position: in the window,
     or retained across an eviction. A miss is a sink invariant
     violation, never silent divergence. *)
  let copy_of t pos =
    let s = t.s in
    if Win.mem s.w_copy pos then (Win.get s.w_copy pos, Win.get s.w_inst pos)
    else
      match Hashtbl.find_opt s.retained pos with
      | Some (_, c, i) -> (c, i)
      | None ->
        Wet_error.fail Wet_error.Build
          "internal: position %d referenced after eviction" pos

  let value_at t pos =
    if Win.mem t.s.w_vals pos then Win.get t.s.w_vals pos
    else
      match Hashtbl.find_opt t.s.retained pos with
      | Some (v, _, _) -> v
      | None ->
        Wet_error.fail Wet_error.Build
          "internal: value at %d referenced after eviction" pos

  (* Replay one path execution through the slot state machine — the
     per-shard compression step, reading the buffered event windows. *)
  let process_exec t (p : proto) =
    let s = t.s in
    ensure_slots s.st !(s.next_slot);
    if s.first_node < 0 then s.first_node <- p.p_id;
    s.last_node <- p.p_id;
    (* dynamic control-flow edges between consecutive nodes *)
    (match s.prev_proto with
     | Some q ->
       Hashtbl.replace q.p_succs p.p_id ();
       Hashtbl.replace p.p_preds q.p_id ()
     | None -> ());
    s.prev_proto <- Some p;
    Dyn.push p.p_ts (s.paths_done + 1);
    let inst = p.p_nexec in
    let n = Array.length p.p_instrs in
    let bp = ref 0 in
    for o = 0 to n - 1 do
      (* advance block position *)
      if !bp + 1 < Array.length p.p_block_start
         && p.p_block_start.(!bp + 1) = o
      then incr bp;
      if p.p_block_start.(!bp) = o then begin
        (* block entry: consume the control-dependence event *)
        let cd_pos = Win.get s.w_cd s.cd_done in
        s.cd_done <- s.cd_done + 1;
        let gid = p.p_cd_slot.(!bp) in
        let nstmts_in_block =
          (if !bp + 1 < Array.length p.p_block_start then
             p.p_block_start.(!bp + 1)
           else n)
          - p.p_block_start.(!bp)
        in
        if cd_pos >= 0 then begin
          s.cd_instances <- s.cd_instances + nstmts_in_block;
          let pc, pi = copy_of t cd_pos in
          let local =
            pc >= p.p_copy_base && pc < p.p_copy_base + n && pi = inst
          in
          slot_event s.st gid ~inst ~pcopy:pc ~pinst:pi ~local
        end
        else slot_event s.st gid ~inst ~pcopy:(-1) ~pinst:(-1) ~local:false
      end;
      let pos = Win.end_ s.w_copy in
      Win.push s.w_copy (p.p_copy_base + o);
      Win.push s.w_inst inst;
      p.p_exec_pos.(o) <- pos;
      let nslots = p.p_slot_count.(o) in
      for sl = 0 to nslots - 1 do
        let producer = Win.get s.w_deps s.deps_done in
        s.deps_done <- s.deps_done + 1;
        p.p_exec_prod.(o).(sl) <- producer;
        let gid = p.p_slot_base.(o) + sl in
        if producer >= 0 then begin
          s.dep_instances <- s.dep_instances + 1;
          if producer >= Win.end_ s.w_copy then begin
            (* forward reference: the producer has not been replayed *)
            Dyn.push s.pend_gid gid;
            Dyn.push s.pend_inst inst;
            Dyn.push s.pend_prod producer
          end
          else begin
            let pc, pi = copy_of t producer in
            let local =
              pc >= p.p_copy_base && pc < p.p_copy_base + n && pi = inst
            in
            slot_event s.st gid ~inst ~pcopy:pc ~pinst:pi ~local
          end
        end
        else slot_event s.st gid ~inst ~pcopy:(-1) ~pinst:(-1) ~local:false
      done;
      if Instr.has_def p.p_instrs.(o) then s.def_execs <- s.def_execs + 1
    done;
    (* value groups: one tuple per group for this execution *)
    Array.iter
      (fun g ->
        let tuple =
          Array.fold_right
            (fun src acc ->
              match src with
              | Src_slot (o, s) ->
                let producer = p.p_exec_prod.(o).(s) in
                (if producer >= 0 then value_at t producer else 0) :: acc
              | Src_input o -> value_at t p.p_exec_pos.(o) :: acc)
            g.pg_sources []
        in
        if Array.length g.pg_sources = 0 then begin
          (* constant group: record unique values once *)
          if p.p_nexec = 0 then
            Array.iter
              (fun o -> Dyn.push p.p_uvals.(o) (value_at t p.p_exec_pos.(o)))
              g.pg_members
        end
        else begin
          match Hashtbl.find_opt g.pg_tuples tuple with
          | Some ix -> Dyn.push g.pg_pattern ix
          | None ->
            let ix = Hashtbl.length g.pg_tuples in
            Hashtbl.replace g.pg_tuples tuple ix;
            Dyn.push g.pg_pattern ix;
            Array.iter
              (fun o -> Dyn.push p.p_uvals.(o) (value_at t p.p_exec_pos.(o)))
              g.pg_members
        end)
      p.p_groups;
    p.p_nexec <- p.p_nexec + 1;
    t.s.paths_done <- t.s.paths_done + 1

  (* Replay every complete, patch-free path execution in the buffer.
     An execution is held back while (a) its trailing statements have
     not been fed yet, or (b) it contains a call whose return value has
     not been patched in — the patch targets buffered slots, so the
     whole range from the oldest pending call onward must stay
     unreplayed. Calls nest, so the oldest pending call (stack bottom)
     is the gate. *)
  let process_available t =
    let s = t.s in
    let min_pending =
      if Dyn.length s.pending_vpos = 0 then max_int
      else Dyn.get s.pending_vpos 0
    in
    let continue = ref true in
    while !continue && s.paths_done < Win.end_ s.w_paths do
      let key = Win.get s.w_paths s.paths_done in
      let p = get_proto t key in
      let n = Array.length p.p_instrs in
      let start = Win.end_ s.w_copy in
      if start + n > s.vals_fed || start + n > min_pending then
        continue := false
      else process_exec t p
    done

  let sample_live t =
    if t.track_peak then begin
      let live = (Gc.stat ()).Gc.live_words in
      if live > t.peak_live then begin
        t.peak_live <- live;
        Obs.set g_peak_live live
      end
    end

  (* Process what the buffer allows, then evict everything a future
     event can no longer reference. The keep-set is exact: positions
     the interpreter still holds live (register/memory shadows, branch
     histories, calling contexts), producers named by still-buffered
     dependence events, and unresolved forward references. Without a
     live iterator (no interpreter has announced one) nothing is
     evicted. *)
  let flush_shard t =
    check_open t "flush_shard";
    let s = t.s in
    process_available t;
    (match t.live_iter with
     | None -> ()
     | Some live ->
       let boundary = Win.end_ s.w_copy in
       let fresh = Hashtbl.create 1024 in
       let keep pos =
         if pos >= 0 && pos < boundary && not (Hashtbl.mem fresh pos) then begin
           let entry =
             if Win.mem s.w_copy pos then
               (Win.get s.w_vals pos, Win.get s.w_copy pos, Win.get s.w_inst pos)
             else
               match Hashtbl.find_opt s.retained pos with
               | Some e -> e
               | None ->
                 Wet_error.fail Wet_error.Build
                   "internal: live position %d already evicted" pos
           in
           Hashtbl.replace fresh pos entry
         end
       in
       live keep;
       for i = s.deps_done to Win.end_ s.w_deps - 1 do
         keep (Win.get s.w_deps i)
       done;
       for i = s.cd_done to Win.end_ s.w_cd - 1 do
         keep (Win.get s.w_cd i)
       done;
       Dyn.iter (fun p -> keep p) s.pend_prod;
       s.retained <- fresh;
       Win.drop_to s.w_copy boundary;
       Win.drop_to s.w_inst boundary;
       Win.drop_to s.w_vals boundary);
    Win.drop_to s.w_paths s.paths_done;
    Win.drop_to s.w_cd s.cd_done;
    Win.drop_to s.w_deps s.deps_done;
    s.shards <- s.shards + 1;
    Obs.incr c_shards;
    if Obs.enabled () then Obs.observe h_shard_events s.events_since_flush;
    s.events_since_flush <- 0;
    sample_live t;
    (* shard boundaries are the builder's progress pulse *)
    Wet_obs.Sink.tick ();
    (* quiescent point: windows trimmed, replay caught up — where a
       durable build snapshots itself *)
    match t.on_shard_flushed with Some f -> f t | None -> ()

  let feed t =
    check_open t "feed";
    t.s.fed <- t.s.fed + 1

  (* Calls and returns patch buffered events; the rest count toward
     the shard size. *)
  let bump t =
    t.s.events_since_flush <- t.s.events_since_flush + 1

  let feed_block t cd =
    feed t;
    Win.push t.s.w_cd cd;
    bump t

  let feed_dep t producer =
    feed t;
    Win.push t.s.w_deps producer;
    bump t

  let feed_value t v =
    feed t;
    Win.push t.s.w_vals v;
    t.s.vals_fed <- t.s.vals_fed + 1;
    bump t

  (* Shard boundaries land on path ends so the replay cursor can make
     progress on every flush. *)
  let feed_path t key =
    feed t;
    Win.push t.s.w_paths key;
    bump t;
    if t.s.events_since_flush >= t.shard_events then flush_shard t

  let feed_call t =
    feed t;
    Dyn.push t.s.pending_vpos t.s.vals_fed;
    Dyn.push t.s.pending_slot (Win.end_ t.s.w_deps - 1)

  let feed_ret t v producer =
    feed t;
    if Dyn.length t.s.pending_vpos = 0 then
      Wet_error.fail Wet_error.Build "return patch with no pending call";
    let vpos = Dyn.pop t.s.pending_vpos in
    let slot = Dyn.pop t.s.pending_slot in
    Win.set t.s.w_vals vpos v;
    Win.set t.s.w_deps slot producer

  let events t =
    {
      Wet_interp.Interp.es_block = (fun cd -> feed_block t cd);
      es_dep = (fun p -> feed_dep t p);
      es_stmt = (fun v -> feed_value t v);
      es_path = (fun key -> feed_path t key);
      es_call = (fun () -> feed_call t);
      es_ret = (fun v p -> feed_ret t v p);
      es_live = (fun iter -> t.live_iter <- Some iter);
    }

  let shard_count t = t.s.shards

  let peak_live_words t = t.peak_live

  (* ---------------- splicing the shard streams ---------------- *)

  let finalize t : Wet.t =
    let analysis = t.analysis in
    let prog = analysis.PA.program in
    let st = t.s.st in
    let npath_execs = Win.end_ t.s.w_paths in
    let protos =
      let arr = Array.of_list (List.rev t.s.proto_list) in
      Array.sort (fun a b -> compare a.p_id b.p_id) arr;
      arr
    in
    let ncopies = !(t.s.next_copy) in
    (* the node of each copy, half of a label's sharing key *)
    let copy_node = Array.make ncopies 0 in
    Array.iter
      (fun p ->
        Array.fill copy_node p.p_copy_base (Array.length p.p_stmts) p.p_id)
      protos;
    (* shared label records *)
    let next_label = ref 0 in
    (* Sharing identical label sequences between the same node pair
       (paper §3.3). Keyed by a strong content hash; the candidate list
       resolves collisions by structural comparison. *)
    let label_cache = Hashtbl.create 1024 in
    let shared_label_values = ref 0 in
    let local_dep_instances = ref 0 in
    let mk_labels src_node dst_node (lb : label_builder) =
      let dst = Dyn.to_array lb.lb_dst and src = Dyn.to_array lb.lb_src in
      let module H = Wet_util.Hashing in
      let h = H.hash_window dst 0 (Array.length dst) in
      let h = H.fnv_fold (H.hash_window src 0 (Array.length src)) h in
      let key = (src_node, dst_node, Array.length dst, h) in
      let candidates =
        Option.value (Hashtbl.find_opt label_cache key) ~default:[]
      in
      match
        List.find_opt (fun (d, s, _) -> d = dst && s = src) candidates
      with
      | Some (_, _, labels) ->
        shared_label_values := !shared_label_values + Array.length dst;
        Obs.incr c_label_dedup_hits;
        labels
      | None ->
        let labels =
          {
            Wet.l_id = !next_label;
            l_dst = raw dst;
            l_src = raw src;
            l_len = Array.length dst;
          }
        in
        incr next_label;
        Hashtbl.replace label_cache key ((dst, src, labels) :: candidates);
        labels
    in
    let finalize_slot p gid ~dst_copy ~slot =
      if Bytes.get st.st_kind gid = '\001' then begin
        let producers =
          match Hashtbl.find_opt st.slot_producers gid with
          | Some l -> List.rev !l
          | None -> []
        in
        match producers with
        | [] -> Wet.No_dep
        | _ ->
          Wet.Remote
            (List.map
               (fun pc ->
                 let lb = Hashtbl.find st.edges (gid, pc) in
                 let labels = mk_labels copy_node.(pc) p.p_id lb in
                 { Wet.e_src = pc; e_dst = dst_copy; e_slot = slot;
                   e_labels = labels })
               producers)
      end
      else if st.st_count.(gid) = 0 then Wet.No_dep
      else begin
        local_dep_instances := !local_dep_instances + st.st_count.(gid);
        Wet.Local st.st_prod.(gid)
      end
    in
    let nodes =
      Array.map
        (fun p ->
          let groups =
            Array.map
              (fun g ->
                {
                  Wet.g_members =
                    Array.map (fun o -> p.p_copy_base + o) g.pg_members;
                  g_nsources = Array.length g.pg_sources;
                  g_pattern =
                    (if Array.length g.pg_sources = 0 then None
                     else Some (raw (Dyn.to_array g.pg_pattern)));
                  g_nuniq =
                    (if Array.length g.pg_sources = 0 then 1
                     else Hashtbl.length g.pg_tuples);
                })
              p.p_groups
          in
          let cd =
            Array.mapi
              (fun bp _ ->
                finalize_slot p p.p_cd_slot.(bp)
                  ~dst_copy:(p.p_copy_base + p.p_block_start.(bp))
                  ~slot:(-1))
              p.p_blocks
          in
          {
            Wet.n_id = p.p_id;
            n_func = p.p_func;
            n_path = p.p_path;
            n_blocks = p.p_blocks;
            n_stmts = p.p_stmts;
            n_block_start = p.p_block_start;
            n_copy_base = p.p_copy_base;
            n_nexec = p.p_nexec;
            n_ts = raw (Dyn.to_array p.p_ts);
            n_succs =
              Array.of_list
                (List.sort compare
                   (Hashtbl.fold (fun k () acc -> k :: acc) p.p_succs []));
            n_preds =
              Array.of_list
                (List.sort compare
                   (Hashtbl.fold (fun k () acc -> k :: acc) p.p_preds []));
            n_groups = groups;
            n_cd = cd;
          })
        protos
    in
    let copy_uvals = Array.make ncopies None in
    let copy_deps = Array.make ncopies [||] in
    Array.iter
      (fun p ->
        Array.iteri
          (fun o _ ->
            let c = p.p_copy_base + o in
            if Instr.has_def p.p_instrs.(o) then
              copy_uvals.(c) <- Some (raw (Dyn.to_array p.p_uvals.(o)));
            copy_deps.(c) <-
              Array.init p.p_slot_count.(o) (fun s ->
                  finalize_slot p (p.p_slot_base.(o) + s) ~dst_copy:c ~slot:s))
          p.p_stmts)
      protos;
    if Obs.enabled () then begin
      Obs.add c_intern_misses t.s.nprotos;
      Obs.add c_intern_hits (npath_execs - t.s.nprotos);
      Obs.add c_label_records !next_label;
      Obs.add c_label_shared_values !shared_label_values;
      Array.iter
        (fun p ->
          Array.iter
            (fun g ->
              Obs.incr c_groups;
              Obs.add c_group_members (Array.length g.pg_members);
              Obs.add c_group_uniq
                (if Array.length g.pg_sources = 0 then 1
                 else Hashtbl.length g.pg_tuples);
              Obs.add c_group_pattern (Dyn.length g.pg_pattern))
            p.p_groups)
        protos;
      Wet_obs.Span.set_attr "stmts" (Wet_obs.Span.Int t.s.vals_fed);
      Wet_obs.Span.set_attr "nodes" (Wet_obs.Span.Int t.s.nprotos)
    end;
    let stats =
      {
        Wet.stmts_executed = t.s.vals_fed;
        block_execs = Win.end_ t.s.w_cd;
        path_execs = npath_execs;
        def_execs = t.s.def_execs;
        dep_instances = t.s.dep_instances;
        cd_instances = t.s.cd_instances;
        local_dep_instances = !local_dep_instances;
        shared_label_values = !shared_label_values;
      }
    in
    Wet.make ~program:prog ~analysis ~nodes ~copy_uvals
      ~copy_deps
      ~first_node:(max 0 t.s.first_node)
      ~last_node:(max 0 t.s.last_node)
      ~stats ~tier:`Tier1 ~damage:[]

  let finish t =
    check_open t "finish";
    t.finished <- true;
    let s = t.s in
    (* Calls the run abandoned (a Halt below them) are never patched:
       their slots legitimately stay holes, exactly as [Interp.run]'s
       trace leaves them, so they no longer gate the replay. *)
    Dyn.clear s.pending_vpos;
    Dyn.clear s.pending_slot;
    process_available t;
    if s.paths_done < Win.end_ s.w_paths then
      Wet_error.fail Wet_error.Build
        "event stream truncated: %d path executions lack their statements"
        (Win.end_ s.w_paths - s.paths_done);
    if
      s.deps_done < Win.end_ s.w_deps
      || s.cd_done < Win.end_ s.w_cd
      || Win.end_ s.w_copy < s.vals_fed
    then
      Wet_error.fail Wet_error.Build
        "trailing events not covered by a path execution";
    (* Return-value links point forward in the dynamic stream (the
       callee's Ret executes after the Call), so their events were
       deferred until the position maps are complete. A deferred
       producer is never in the consumer's node (callee paths are
       distinct from the caller's call path), so these events are never
       Local. *)
    for i = 0 to Dyn.length s.pend_gid - 1 do
      let producer = Dyn.get s.pend_prod i in
      let pc, pi = copy_of t producer in
      slot_event s.st (Dyn.get s.pend_gid i)
        ~inst:(Dyn.get s.pend_inst i) ~pcopy:pc ~pinst:pi ~local:false
    done;
    let wet = finalize t in
    sample_live t;
    wet
end

(* ------------------------------------------------------------------ *)
(* Tier 2                                                             *)
(* ------------------------------------------------------------------ *)

let pack_tier2 (w : Wet.t) : Wet.t =
  if w.Wet.tier = `Tier2 then
    Wet_error.fail Wet_error.Pack "already packed";
  let pack_seq s = Stream.compress (Stream.contents s) in
  let label_memo = Hashtbl.create 1024 in
  let pack_labels (l : Wet.labels) =
    match Hashtbl.find_opt label_memo l.Wet.l_id with
    | Some l' -> l'
    | None ->
      let l' =
        {
          Wet.l_id = l.Wet.l_id;
          l_dst = pack_seq l.Wet.l_dst;
          l_src = pack_seq l.Wet.l_src;
          l_len = l.Wet.l_len;
        }
      in
      Hashtbl.replace label_memo l.Wet.l_id l';
      l'
  in
  (* each edge sits in one dependence source; [Wet.make] indexes the
     packed ones afresh *)
  let pack_source = function
    | Wet.Remote edges ->
      Wet.Remote
        (List.map
           (fun (e : Wet.edge) ->
             { e with Wet.e_labels = pack_labels e.Wet.e_labels })
           edges)
    | s -> s
  in
  let nodes =
    Array.map
      (fun n ->
        {
          n with
          Wet.n_ts = pack_seq n.Wet.n_ts;
          n_groups =
            Array.map
              (fun g ->
                { g with Wet.g_pattern = Option.map pack_seq g.Wet.g_pattern })
              n.Wet.n_groups;
          n_cd = Array.map pack_source n.Wet.n_cd;
        })
      w.Wet.nodes
  in
  Wet.make ~program:w.Wet.program ~analysis:w.Wet.analysis ~nodes
    ~copy_uvals:(Array.map (Option.map pack_seq) w.Wet.copy_uvals)
    ~copy_deps:(Array.map (Array.map pack_source) w.Wet.copy_deps)
    ~first_node:w.Wet.first_node ~last_node:w.Wet.last_node
    ~stats:w.Wet.stats ~tier:`Tier2 ~damage:w.Wet.damage

let pack w = Wet_obs.Span.with_ "build.tier2" (fun () -> pack_tier2 w)

(* ------------------------------------------------------------------ *)
(* Streaming entry point: interpret straight into a sink.             *)
(* ------------------------------------------------------------------ *)

let run_streaming ?shard_events ?max_stmts ?interprocedural_cd ?analysis
    ~program ~input () =
  let analysis =
    match analysis with Some a -> a | None -> PA.of_program program
  in
  Wet_obs.Span.with_ "build.stream" (fun () ->
      let sink = Sink.create ?shard_events analysis in
      let _outputs, _stmts =
        Wet_interp.Interp.run_with_sink ?max_stmts ?interprocedural_cd
          ~analysis ~sink:(Sink.events sink) program ~input
      in
      Sink.finish sink)

(* ------------------------------------------------------------------ *)
(* Durable builds: checkpointed construction and crash recovery.      *)
(* ------------------------------------------------------------------ *)

module Checkpoint = struct
  module J = Wet_journal.Journal

  let tag_header = 0

  let tag_checkpoint = 1

  let fail fmt = Wet_error.fail Wet_error.Journal fmt

  (* The layout of the marshalled [header] and [Sink.state] records,
     written as a line in front of the header record's Marshal payload.
     Marshal checks no types: a journal of another layout would
     unmarshal into a value of the wrong type, so nothing is
     unmarshalled from a journal whose header names another layout, or
     none. Bump it with any change to those two records; test_journal's
     golden digest fails until it is bumped and the digest
     re-recorded. *)
  let layout = "wet-journal-layout/4"

  (* The layout line a header payload starts with, and the offset of
     the Marshal bytes after it. Journals written before the layout was
     named hold a bare Marshal payload, with no line. *)
  let layout_line payload =
    match String.index_opt payload '\n' with
    | Some i when String.starts_with ~prefix:"wet-journal-layout/" payload ->
      Some (String.sub payload 0 i, i + 1)
    | _ -> None

  type header = {
    h_program : Program.t;  (* post-optimization: resume never re-optimizes *)
    h_input : int array;
    h_shard_events : int;
    h_checkpoint_every : int;
    h_max_stmts : int option;
    h_interprocedural_cd : bool;
    h_tier2 : bool;
    h_label : string;
  }

  type resumed = {
    r_wet : Wet.t;
    r_header : header;
    r_replayed_shards : int;
    r_torn_tail : bool;
    r_resume_ms : float;
  }

  (* One durable point of the build: a checkpoint record's payload is
     the sink's snapshot, the full sink state (pending-call LIFO, live
     keep-set, event and shard counts included). Resume restarts the
     interpreter at the restored sink's watermark and reports its shard
     count as fast-forwarded. *)
  let append_checkpoint w ~checkpoint_every sink =
    if Sink.shard_count sink mod checkpoint_every = 0 then
      J.append w ~tag:tag_checkpoint (Sink.snapshot sink)

  (* Run the interpretation with [sink], journaling a checkpoint per
     flushed shard, and close the writer even when an injected kill (or
     any other exception) unwinds — exactly what process death would do,
     since every append is already durable. *)
  let drive w ~header ?resume_at ?on_caught_up sink =
    let checkpoint_every = header.h_checkpoint_every in
    Sink.(
      sink.on_shard_flushed <-
        Some (fun s -> append_checkpoint w ~checkpoint_every s));
    let analysis = Sink.(sink.analysis) in
    Fun.protect
      ~finally:(fun () -> J.close w)
      (fun () ->
        let _outputs, _stmts =
          Wet_interp.Interp.run_with_sink ?max_stmts:header.h_max_stmts
            ~interprocedural_cd:header.h_interprocedural_cd ~analysis
            ?resume_at ?on_caught_up ~sink:(Sink.events sink)
            header.h_program ~input:header.h_input
        in
        Sink.finish sink)

  let build ?(shard_events = Sink.default_shard_events)
      ?(checkpoint_every = 1) ?max_stmts
      ?(interprocedural_cd = false) ?analysis ?(tier2 = false)
      ?(label = "") ?on_header_written ~journal ~program ~input () =
    let analysis =
      match analysis with Some a -> a | None -> PA.of_program program
    in
    let header =
      {
        h_program = program;
        h_input = input;
        h_shard_events = max 1 shard_events;
        h_checkpoint_every = max 1 checkpoint_every;
        h_max_stmts = max_stmts;
        h_interprocedural_cd = interprocedural_cd;
        h_tier2 = tier2;
        h_label = label;
      }
    in
    let w = J.create journal in
    (match
       J.append w ~tag:tag_header
         (layout ^ "\n" ^ Marshal.to_string header [])
     with
    | () -> ()
    | exception e ->
      J.close w;
      raise e);
    (* the header is durable: only now may the campaign arm its kills,
       so recovery always finds at least a replayable configuration *)
    (match on_header_written with Some f -> f () | None -> ());
    Wet_obs.Span.with_ "build.checkpointed" (fun () ->
        let sink = Sink.create ~shard_events analysis in
        drive w ~header sink)

  (* [Ok None]: no intact header record. [Error]: a header of another
     layout, refused before anything is unmarshalled. *)
  let header_of journal scan =
    match scan.J.records with
    | hd :: rest when hd.J.tag = tag_header -> (
      match layout_line hd.J.payload with
      | Some (l, body) when l = layout -> (
        match (Marshal.from_string hd.J.payload body : header) with
        | header -> Ok (Some (header, rest))
        | exception Failure _ -> Ok None)
      | named ->
        Error
          (Printf.sprintf
             "%s: journal layout %s, but this build reads %s; rebuild it \
              from scratch"
             journal
             (match named with
              | Some (l, _) -> l
              | None -> "none (written before journals named their layout)")
             layout))
    | _ -> Ok None

  let last_checkpoint rest =
    List.fold_left
      (fun _acc (r : J.record) ->
        if r.J.tag <> tag_checkpoint then
          fail "unknown journal record tag %d" r.J.tag
        else Some r.J.payload)
      None rest

  let resume ~journal () =
    let scan =
      match J.read journal with Ok s -> s | Error m -> fail "%s" m
    in
    let header, rest =
      match header_of journal scan with
      | Ok (Some hr) -> hr
      | Ok None ->
        fail
          "%s: no intact header record — the build died before its \
           configuration was durable; restart it from scratch"
          journal
      | Error m -> fail "%s" m
    in
    let ckpt = last_checkpoint rest in
    (* drop any torn tail, then keep journaling subsequent shards so a
       second death during recovery is itself recoverable *)
    let w = J.reopen journal ~at:scan.J.intact_bytes in
    let analysis =
      match
        PA.of_program header.h_program
      with
      | a -> a
      | exception e ->
        J.close w;
        raise e
    in
    let t0 = Wet_obs.Clock.now_ns () in
    let caught_ms = ref 0. in
    let on_caught_up () =
      caught_ms := float_of_int (Wet_obs.Clock.now_ns () - t0) /. 1e6
    in
    let sink =
      match ckpt with
      | None ->
        (* header only: nothing checkpointed, rebuild from the start *)
        Sink.create ~shard_events:header.h_shard_events analysis
      | Some snapshot ->
        Sink.resume_from ~shard_events:header.h_shard_events ~snapshot
          analysis
    in
    let replayed = Sink.shard_count sink in
    let wet =
      Wet_obs.Span.with_ "build.resume" (fun () ->
          drive w ~header ~resume_at:(Sink.watermark sink) ~on_caught_up
            sink)
    in
    J.note_replayed_shards replayed;
    J.note_resume_ms !caught_ms;
    {
      r_wet = wet;
      r_header = header;
      r_replayed_shards = replayed;
      r_torn_tail = scan.J.torn;
      r_resume_ms = !caught_ms;
    }
end
