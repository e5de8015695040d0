open Wet_ir
module Dyn = Wet_util.Dynarray_int
module PA = Wet_cfg.Program_analysis
module BL = Wet_cfg.Ball_larus

exception Halted

type event_sink = {
  es_block : int -> unit;
  es_dep : int -> unit;
  es_stmt : int -> unit;
  es_path : int -> unit;
  es_call : unit -> unit;
  es_ret : int -> int -> unit;
  es_live : ((int -> unit) -> unit) -> unit;
}

(* Recovery fast-forward: re-execution is deterministic, so the first
   [n] events delivered are exactly the ones a restored sink has
   already consumed — count them off and drop them, forward the rest.
   [es_live] is not an event and passes through immediately (the sink
   must re-learn the interpreter's live-position iterator; it carries
   no history). A suppressed [es_call] stays suppressed as a
   pending-LIFO push too: the restored sink already holds the entry,
   and the matching [es_ret], which may arrive after the first [n]
   events, pops it. *)
let fast_forward ?(on_caught_up = fun () -> ()) n k =
  let seen = ref 0 in
  let live () =
    if !seen >= n then true
    else begin
      incr seen;
      if !seen = n then on_caught_up ();
      false
    end
  in
  if n <= 0 then begin
    on_caught_up ();
    k
  end
  else
    {
      es_block = (fun cd -> if live () then k.es_block cd);
      es_dep = (fun p -> if live () then k.es_dep p);
      es_stmt = (fun v -> if live () then k.es_stmt v);
      es_path = (fun key -> if live () then k.es_path key);
      es_call = (fun () -> if live () then k.es_call ());
      es_ret = (fun v p -> if live () then k.es_ret v p);
      es_live = k.es_live;
    }

(* Observability: whole-run counters (filled once per run from the
   recorded streams, so the hot loop pays nothing) and an optional
   heartbeat every [Wet_obs.Sink.heartbeat_every] statements. *)
let c_stmts = Wet_obs.Metrics.counter "interp.stmts"

let c_blocks = Wet_obs.Metrics.counter "interp.block_execs"

let c_paths = Wet_obs.Metrics.counter "interp.path_execs"

let c_deps = Wet_obs.Metrics.counter "interp.dep_events"

let c_outputs = Wet_obs.Metrics.counter "interp.outputs"

(* Last heartbeat position: a live progress gauge for long runs. *)
let g_heartbeat = Wet_obs.Metrics.gauge "interp.heartbeat_stmts"

(* A heartbeat prints nothing: the tick drives [Wet_obs.Reporter], the
   one renderer of progress. *)
let heartbeat pos =
  Wet_obs.Metrics.set g_heartbeat pos;
  Wet_obs.Span.instant "interp.heartbeat"
    ~attrs:[ ("stmts", Wet_obs.Span.Int pos) ];
  Wet_obs.Sink.tick ()

(* Tracer-driver event kinds (dense indices, fixed at module init). *)
let k_entry = Wet_watch.Event.kind_index Wet_watch.Event.Block_entry

let k_def = Wet_watch.Event.kind_index Wet_watch.Event.Value_def

let k_use = Wet_watch.Event.kind_index Wet_watch.Event.Use

let k_load = Wet_watch.Event.kind_index Wet_watch.Event.Load

let k_store = Wet_watch.Event.kind_index Wet_watch.Event.Store

let k_call = Wet_watch.Event.kind_index Wet_watch.Event.Call

type result = {
  trace : Trace.t;
  outputs : int array;
  stmts_executed : int;
}

let fail fmt = Wet_error.fail Wet_error.Interp fmt

let eval_binop op a b =
  match Wet_ir.Eval.binop op a b with
  | Some v -> v
  | None ->
    fail "%s by zero" (match op with Instr.Div -> "division" | _ -> "remainder")

let eval_cmp = Wet_ir.Eval.cmp

let eval_unop = Wet_ir.Eval.unop

(* What execute hands back: the trace exists only in [`Trace] mode; the
   event counts are maintained in every recording mode so both entry
   points fill the same obs counters. *)
type raw = {
  r_trace : Trace.t option;
  r_outputs : int array;
  r_stmts : int;
  r_paths : int;
  r_blocks : int;
  r_deps : int;
}

(* One shared implementation; [mode] selects where trace events go:
   [`Off] discards them (outputs-only fast path), [`Trace] accumulates
   the materialized {!Trace.t} streams, [`Sink k] hands each event to
   the caller's callbacks as it happens so nothing is retained here.
   The recording branches are statically dead in the outputs-only path
   after inlining the flag test. *)
let execute ~mode ~inter_cd ~max_stmts ~analysis (prog : Program.t) ~input =
  let record = match mode with `Off -> false | `Trace | `Sink _ -> true in
  let memory = Array.make prog.mem_words 0 in
  let mem_shadow = if record then Array.make prog.mem_words (-1) else [||] in
  let paths = Dyn.create () in
  let blocks = Dyn.create () in
  let cd_producer = Dyn.create () in
  let values = Dyn.create () in
  let deps = Dyn.create () in
  let mem_ops = Dyn.create () in
  let outputs = Dyn.create () in
  let pos = ref 0 in
  let npaths = ref 0 in
  let nblocks = ref 0 in
  let ndeps = ref 0 in
  (* Event emitters: one branch on the immutable [mode] per event. The
     path count is tracked on this side in every mode because watch
     timestamps are path-exec ordinals. *)
  let push_dep s =
    incr ndeps;
    match mode with
    | `Trace -> Dyn.push deps s
    | `Sink k -> k.es_dep s
    | `Off -> ()
  in
  let push_value v =
    match mode with
    | `Trace -> Dyn.push values v
    | `Sink k -> k.es_stmt v
    | `Off -> ()
  in
  let push_path key =
    incr npaths;
    match mode with
    | `Trace -> Dyn.push paths key
    | `Sink k -> k.es_path key
    | `Off -> ()
  in
  (* Live-position registry for [`Sink] mode: the shadows of every
     active activation (plus its branch history and calling position)
     and the memory shadow are exactly the positions future dependence
     events can still reference, so the sink can evict everything
     else at a shard boundary. *)
  let frames = ref [] in
  (* A call's position becomes the callee's [ctx_pos], but the callee's
     frame only enters the registry inside [exec_func] — after the
     caller's [finish_path] has run, which may flush a shard. Without a
     destination register no pending-call gate holds the position back
     either, so this slot keeps it live across that window. *)
  let pending_ctx = ref (-1) in
  let in_sink = match mode with `Sink _ -> true | _ -> false in
  (match mode with
   | `Sink k ->
     k.es_live (fun f ->
         if !pending_ctx >= 0 then f !pending_ctx;
         List.iter
           (fun (sh, lb, cp) ->
             Array.iter f sh;
             Array.iter f lb;
             f cp)
           !frames;
         Array.iter f mem_shadow)
   | _ -> ());
  (* Statement budget and heartbeat share one per-statement comparison:
     [limit] is whichever threshold comes first, and the slow path
     disentangles budget exhaustion from a due heartbeat. A heartbeat
     becomes due after every [hb]-th completed statement (observed at
     the next statement boundary, or at run end for the last one), so a
     run of S statements heartbeats exactly floor(S/hb) times. *)
  let hb = !Wet_obs.Sink.heartbeat_every in
  let hb_next = ref (if hb > 0 then hb else max_int) in
  let limit = ref (min max_stmts !hb_next) in
  (* The tracer driver is consulted only on recording runs; [watching]
     is fixed for the whole run, so disarmed event sites are a dead
     conditional on an immutable bool. *)
  let watching = record && Wet_watch.Watch.armed () in
  let input_ix = ref 0 in
  let next_input () =
    if !input_ix >= Array.length input then fail "input stream exhausted"
    else begin
      let v = input.(!input_ix) in
      incr input_ix;
      v
    end
  in
  let check_addr a =
    if a < 0 || a >= prog.mem_words then
      fail "memory access out of bounds: address %d (memory has %d words)" a
        prog.mem_words
  in
  let past_limit () =
    if !pos >= max_stmts then
      fail "statement budget exceeded (%d)" max_stmts;
    while !pos >= !hb_next do
      heartbeat !pos;
      hb_next := !hb_next + hb
    done;
    limit := min max_stmts !hb_next
  in
  (* [ctx_pos]: dynamic position of the calling statement, -1 for main;
     with [inter_cd] it becomes the control-dependence producer of blocks
     that have no intraprocedural parent. *)
  let rec exec_func f ~ctx_pos (args : (int * int) list) =
    let fn = prog.funcs.(f) in
    let info = PA.fn analysis f in
    let bl = info.PA.bl in
    let regs = Array.make fn.Func.nregs 0 in
    let shadow = if record then Array.make fn.Func.nregs (-1) else [||] in
    List.iteri
      (fun i (v, s) ->
        regs.(i) <- v;
        if record then shadow.(i) <- s)
      args;
    let last_branch =
      if record then Array.make info.PA.graph.Wet_cfg.Graph.nblocks (-1)
      else [||]
    in
    if in_sink then begin
      frames := (shadow, last_branch, ctx_pos) :: !frames;
      pending_ctx := -1
    end;
    let pathsum = ref 0 in
    let finish_path b =
      if record then
        push_path (Trace.encode_path f (!pathsum + BL.finish_value bl ~src:b))
    in
    (* [begin_stmt]/[end_stmt] take the block as an argument so the
       closures are built once per function activation, not once per
       executed block — the non-recording path stays allocation-free. *)
    let begin_stmt b ins =
      if !pos >= !limit then past_limit ();
      if record then
        List.iter (fun r -> push_dep shadow.(r)) (Instr.uses ins);
      if watching then begin
        let ts = !npaths + 1 in
        List.iter
          (fun r -> Wet_watch.Watch.emit k_use f b !pos regs.(r) (-1) ts)
          (Instr.uses ins)
      end
    in
    let end_stmt b ins value =
      (* Defs of loads surface as [load] events (value and address
         together); call return values surface as [call] events. *)
      if watching && Instr.has_def ins
         && not (Instr.is_memory ins)
         && not (Instr.is_terminator ins)
      then
        Wet_watch.Watch.emit k_def f b !pos value (-1) (!npaths + 1);
      if record then push_value value;
      incr pos
    in
    let rec block_loop b =
      if record then begin
        incr nblocks;
        (match mode with
         | `Trace -> Dyn.push blocks (Trace.encode_block f b)
         | _ -> ());
        let cd =
          List.fold_left
            (fun acc p -> max acc last_branch.(p))
            (-1) info.PA.cd_parents.(b)
        in
        let cd = if cd = -1 && inter_cd then ctx_pos else cd in
        match mode with
        | `Trace -> Dyn.push cd_producer cd
        | `Sink k -> k.es_block cd
        | `Off -> ()
      end;
      if watching then
        Wet_watch.Watch.emit k_entry f b !pos 0 (-1) (!npaths + 1);
      let instrs = fn.Func.blocks.(b).Func.instrs in
      let n = Array.length instrs in
      for i = 0 to n - 2 do
        let ins = instrs.(i) in
        begin_stmt b ins;
        match ins with
        | Instr.Const (r, v) ->
          regs.(r) <- v;
          if record then shadow.(r) <- !pos;
          end_stmt b ins v
        | Instr.Move (r, a) ->
          let v = regs.(a) in
          regs.(r) <- v;
          if record then shadow.(r) <- !pos;
          end_stmt b ins v
        | Instr.Binop (op, r, a, b') ->
          let v = eval_binop op regs.(a) regs.(b') in
          regs.(r) <- v;
          if record then shadow.(r) <- !pos;
          end_stmt b ins v
        | Instr.Cmp (op, r, a, b') ->
          let v = eval_cmp op regs.(a) regs.(b') in
          regs.(r) <- v;
          if record then shadow.(r) <- !pos;
          end_stmt b ins v
        | Instr.Unop (op, r, a) ->
          let v = eval_unop op regs.(a) in
          regs.(r) <- v;
          if record then shadow.(r) <- !pos;
          end_stmt b ins v
        | Instr.Load (r, a) ->
          let addr = regs.(a) in
          check_addr addr;
          let v = memory.(addr) in
          regs.(r) <- v;
          if record then begin
            push_dep mem_shadow.(addr);
            (match mode with
             | `Trace -> Dyn.push mem_ops (addr lsl 1)
             | _ -> ());
            shadow.(r) <- !pos
          end;
          if watching then
            Wet_watch.Watch.emit k_load f b !pos v addr (!npaths + 1);
          end_stmt b ins v
        | Instr.Store (a, vr) ->
          let addr = regs.(a) in
          check_addr addr;
          let v = regs.(vr) in
          memory.(addr) <- v;
          if record then begin
            (match mode with
             | `Trace -> Dyn.push mem_ops ((addr lsl 1) lor 1)
             | _ -> ());
            mem_shadow.(addr) <- !pos
          end;
          if watching then
            Wet_watch.Watch.emit k_store f b !pos v addr (!npaths + 1);
          (* A store has no def port, but its position must resolve to
             the stored value so that loads can recover their operand. *)
          end_stmt b ins v
        | Instr.Input r ->
          let v = next_input () in
          regs.(r) <- v;
          if record then shadow.(r) <- !pos;
          end_stmt b ins v
        | Instr.Output r ->
          Dyn.push outputs regs.(r);
          end_stmt b ins 0
        | Instr.Call _ | Instr.Branch _ | Instr.Jump _ | Instr.Ret _
        | Instr.Halt ->
          assert false (* terminators are in last position (validated) *)
      done;
      let term = instrs.(n - 1) in
      begin_stmt b term;
      let term_pos = !pos in
      match term with
      | Instr.Branch (r, b1, b2) ->
        let taken = regs.(r) <> 0 in
        if record then last_branch.(b) <- term_pos;
        end_stmt b term 0;
        let succ_ix = if taken then 0 else 1 in
        let target = if taken then b1 else b2 in
        goto b succ_ix target
      | Instr.Jump target ->
        end_stmt b term 0;
        goto b 0 target
      | Instr.Call (dst, callee, arg_regs, cont) ->
        let args =
          List.map
            (fun r -> (regs.(r), if record then shadow.(r) else -1))
            arg_regs
        in
        (* The return-value link is a dep slot that cannot be filled
           until the callee returns: the trace mode patches the slot (and
           the call's value) in place, the sink mode is told a patchable
           call was just emitted and receives the patch via [es_ret]. *)
        let ret_slot =
          if record && dst <> None then begin
            push_dep (-1);
            match mode with
            | `Trace -> Dyn.length deps - 1
            | `Sink k ->
              k.es_call ();
              -1
            | `Off -> -1
          end
          else -1
        in
        if watching then
          Wet_watch.Watch.emit k_call callee
            prog.funcs.(callee).Func.entry term_pos 0 (-1)
            (!npaths + 1);
        end_stmt b term 0;
        if in_sink then pending_ctx := term_pos;
        finish_path b;
        let ret = exec_func callee ~ctx_pos:term_pos args in
        (match (dst, ret) with
         | Some r, Some (v, s) ->
           regs.(r) <- v;
           if record then begin
             shadow.(r) <- term_pos;
             match mode with
             | `Trace ->
               Dyn.set values term_pos v;
               Dyn.set deps ret_slot s
             | `Sink k -> k.es_ret v s
             | `Off -> ()
           end
         | Some _, None ->
           fail "function %s returned no value but one was expected"
             prog.funcs.(callee).Func.name
         | None, _ -> ());
        pathsum := BL.start_value bl ~node:cont;
        block_loop cont
      | Instr.Ret r -> (
        match r with
        | Some r ->
          (* Like a store, a return has no def port but acts as the
             producer of the caller's return-value link; its position
             resolves to the returned value, and its own use slot links
             on to the value's producer. *)
          let v = regs.(r) in
          end_stmt b term v;
          finish_path b;
          Some (v, term_pos)
        | None ->
          end_stmt b term 0;
          finish_path b;
          None)
      | Instr.Halt ->
        end_stmt b term 0;
        finish_path b;
        raise Halted
      | Instr.Const _ | Instr.Move _ | Instr.Binop _ | Instr.Cmp _
      | Instr.Unop _ | Instr.Load _ | Instr.Store _ | Instr.Input _
      | Instr.Output _ ->
        assert false
    and goto src succ_ix target =
      let bl = (PA.fn analysis f).PA.bl in
      if BL.is_break bl ~src ~succ_ix then begin
        finish_path src;
        pathsum := BL.start_value bl ~node:target
      end
      else pathsum := !pathsum + BL.edge_value bl ~src ~succ_ix;
      block_loop target
    in
    let ret = block_loop fn.Func.entry in
    (* Not reached on Halted — the whole run is over then, so the frame
       registry's staleness is unobservable. *)
    if in_sink then frames := List.tl !frames;
    ret
  in
  (try ignore (exec_func prog.main ~ctx_pos:(-1) []) with Halted -> ());
  (* a heartbeat due exactly at the last statement has no next statement
     boundary to surface at *)
  if !pos >= !hb_next then heartbeat !pos;
  let out = Dyn.to_array outputs in
  let trace =
    match mode with
    | `Trace ->
      Some
        {
          Trace.analysis;
          paths = Dyn.to_array paths;
          blocks = Dyn.to_array blocks;
          cd_producer = Dyn.to_array cd_producer;
          values = Dyn.to_array values;
          deps = Dyn.to_array deps;
          mem_ops = Dyn.to_array mem_ops;
          outputs = out;
          nstmts = !pos;
        }
    | `Sink _ | `Off -> None
  in
  {
    r_trace = trace;
    r_outputs = out;
    r_stmts = !pos;
    r_paths = !npaths;
    r_blocks = !nblocks;
    r_deps = !ndeps;
  }

let note_counters raw =
  let open Wet_obs.Metrics in
  add c_stmts raw.r_stmts;
  add c_blocks raw.r_blocks;
  add c_paths raw.r_paths;
  add c_deps raw.r_deps;
  add c_outputs (Array.length raw.r_outputs);
  Wet_obs.Span.set_attr "stmts" (Wet_obs.Span.Int raw.r_stmts);
  Wet_obs.Span.set_attr "paths" (Wet_obs.Span.Int raw.r_paths)

let run ?(max_stmts = 2_000_000_000) ?(interprocedural_cd = false) ?analysis
    prog ~input =
  let analysis =
    match analysis with Some a -> a | None -> PA.of_program prog
  in
  Wet_obs.Span.with_ "interp.run" (fun () ->
      let raw =
        execute ~mode:`Trace ~inter_cd:interprocedural_cd ~max_stmts ~analysis
          prog ~input
      in
      note_counters raw;
      let trace =
        match raw.r_trace with Some t -> t | None -> assert false
      in
      { trace; outputs = raw.r_outputs; stmts_executed = raw.r_stmts })

let run_with_sink ?(max_stmts = 2_000_000_000) ?(interprocedural_cd = false)
    ?analysis ?resume_at ?on_caught_up ~sink prog ~input =
  let sink =
    match resume_at with
    | Some wm -> fast_forward ?on_caught_up wm sink
    | None -> sink
  in
  let analysis =
    match analysis with Some a -> a | None -> PA.of_program prog
  in
  Wet_obs.Span.with_ "interp.run" (fun () ->
      let raw =
        execute ~mode:(`Sink sink) ~inter_cd:interprocedural_cd ~max_stmts
          ~analysis prog ~input
      in
      note_counters raw;
      (raw.r_outputs, raw.r_stmts))

let outputs_only ?(max_stmts = 2_000_000_000) prog ~input =
  let analysis = PA.of_program prog in
  let raw = execute ~mode:`Off ~inter_cd:false ~max_stmts ~analysis prog ~input in
  raw.r_outputs
