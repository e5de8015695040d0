(** Work done once per distinct argument. *)

(** [memo ~equal ~hash f] is [f], applied once per argument up to
    [equal]: a later call with an equal argument returns the first
    result. [hash] must give equal arguments equal hashes. *)
val memo :
  equal:('a -> 'a -> bool) -> hash:('a -> int) -> ('a -> 'b) -> 'a -> 'b

(** [by_identity f] is {!memo} up to physical identity ([==]): a
    structurally equal copy is a new argument. It hashes with
    [Hashtbl.hash], which reads a bounded prefix of a value, so a value
    must not change while it is a key. *)
val by_identity : ('a -> 'b) -> 'a -> 'b
