module W = Wet_core.Wet
module Slice_ = Wet_core.Slice
module Instr = Wet_ir.Instr

let escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let nodes (t : W.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph wet {\n  rankdir=LR;\n  node [shape=box];\n";
  Array.iter
    (fun (n : W.node) ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"f%d/p%d\\n%d blocks, %d execs\"];\n"
           n.W.n_id n.W.n_func n.W.n_path (Array.length n.W.n_blocks)
           n.W.n_nexec))
    t.W.nodes;
  Array.iter
    (fun (n : W.node) ->
      Array.iter
        (fun s -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" n.W.n_id s))
        n.W.n_succs)
    t.W.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let slice ?(max_instances = 64) s c0 i0 =
  let t = W.Session.wet s in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph wet_slice {\n  node [shape=box];\n";
  let visited = Hashtbl.create 64 in
  ignore
    (Slice_.Session.backward ~max_instances s c0 i0 ~f:(fun c i ->
         Hashtbl.replace visited (c, i) ();
         Buffer.add_string buf
           (Printf.sprintf "  s%d_%d [label=\"%s\\ninstance %d\"%s];\n" c i
              (escape (Fmt.str "%a" Instr.pp (W.instr_of_copy t c)))
              i
              (if c = c0 && i = i0 then ", style=filled, fillcolor=lightgrey"
               else ""))));
  (* edges between visited instances only *)
  Hashtbl.iter
    (fun (c, i) () ->
      let nslots = Array.length t.W.copy_deps.(c) in
      for slot = 0 to nslots - 1 do
        match W.Session.resolve_dep s c i slot with
        | Some (pc, pi) when Hashtbl.mem visited (pc, pi) ->
          Buffer.add_string buf
            (Printf.sprintf "  s%d_%d -> s%d_%d;\n" pc pi c i)
        | Some _ | None -> ()
      done;
      match W.Session.resolve_cd s c i with
      | Some (pc, pi) when Hashtbl.mem visited (pc, pi) ->
        Buffer.add_string buf
          (Printf.sprintf "  s%d_%d -> s%d_%d [style=dashed];\n" pc pi c i)
      | Some _ | None -> ())
    visited;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
