(** Graphviz export of WET structure, for inspecting small programs and
    slices ("a next generation software tool ... for mining of program
    profiles" needs eyes on the graph).

    Both exports are deliberately bounded: WETs of real runs are far too
    large to draw, so callers either render the node-level summary graph
    or a single slice's subgraph. *)

(** The node-level WET: one Graphviz node per Ball–Larus path node
    (annotated with function, path id, execution count), solid edges for
    dynamic control flow. *)
val nodes : Wet_core.Wet.t -> string

(** [slice s copy instance] is the dependence subgraph visited by a
    backward slice from [(copy, instance)]: statement instances as
    nodes, data dependences as solid edges, control dependences dashed.
    [max_instances] bounds the drawn slice (default 64). The walk moves
    only session [s]'s cursors. *)
val slice :
  ?max_instances:int ->
  Wet_core.Wet.session ->
  Wet_core.Wet.copy_id ->
  int ->
  string
