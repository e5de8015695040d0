module W = Wet_core.Wet
module Query = Wet_core.Query
module S = W.Session
module Instr = Wet_ir.Instr

type t = { cells : (int, int * int) Hashtbl.t (* addr -> (ts, value) *) }

let at_session (s : W.session) ~ts =
  let wet = S.wet s in
  if ts < 1 || ts > wet.W.stats.W.path_execs then
    Wet_error.fail Wet_error.Query "State_reconstruct.at: timestamp out of range";
  let cells = Hashtbl.create 1024 in
  let stores =
    Query.copies_matching wet (function Instr.Store _ -> true | _ -> false)
  in
  List.iter
    (fun c ->
      let node = W.node_of_copy wet c in
      (* a node's timestamps strictly increase, so the first instance
         past [ts] ends the copy's stores that matter *)
      let rec store i =
        if i < node.W.n_nexec then begin
          let when_ = S.timestamp s c i in
          if when_ <= ts then begin
            (* slot 0 is the address operand, slot 1 the stored value *)
            let addr =
              match S.resolve_dep s c i 0 with
              | Some (pc, pi) -> S.value_of_copy s pc pi
              | None -> 0
            in
            let value =
              match S.resolve_dep s c i 1 with
              | Some (pc, pi) -> S.value_of_copy s pc pi
              | None -> 0
            in
            (match Hashtbl.find_opt cells addr with
             | Some (prev_ts, _) when prev_ts >= when_ -> ()
             | Some _ | None -> Hashtbl.replace cells addr (when_, value));
            store (i + 1)
          end
        end
      in
      store 0)
    stores;
  { cells }

let read t addr =
  match Hashtbl.find_opt t.cells addr with
  | Some (_, v) -> v
  | None -> 0

let written t =
  List.sort compare (Hashtbl.fold (fun a _ acc -> a :: acc) t.cells [])

let global (wet : W.t) t name =
  read t (Wet_ir.Program.global_base wet.W.program name)
