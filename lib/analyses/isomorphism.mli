(** Instruction isomorphism mining (the paper cites Sazeides'
    "Instruction-Isomorphism in Program Execution" as a client of
    dependence profiles).

    Two statement copies are {e value-isomorphic} when they produce
    identical value sequences over the whole run. The WET's tier-1 value
    representation makes a sound subset of these detectable without
    decompressing anything: members of the same input group share the
    pattern stream, and equal [UVals] sequences are one shared body, so
    two members with the same [UVals] body provably produce identical
    sequences. Such statements are candidates for
    reuse-based redundancy elimination — the very observation §3.2's
    value grouping is built on. *)

type klass = {
  members : Wet_core.Wet.copy_id list;  (** ≥ 2 copies, identical value sequences *)
  executions : int;  (** per member *)
  distinct_values : int;  (** length of the shared [UVals] *)
}

(** All within-group isomorphism classes with at least two members. *)
val classes : Wet_core.Wet.t -> klass list

(** Aggregate statistics: [(isomorphic copies, total def copies,
    redundant value-sequence executions)] — the executions that produce
    a value some isomorphic sibling also produces. *)
val summary : Wet_core.Wet.t -> int * int * int
