(** Raw whole-execution traces.

    The interpreter (the stand-in for the paper's Trimaran simulator)
    produces one of these: the independent reference a WET, built from
    the same events as they stream past, is checked against. A trace
    records, in exact dynamic order:

    {ul
    {- one entry per {e completed Ball–Larus path} ({!field-paths}) — path
       completion order equals block order because calls and back edges
       both end paths, so the timestamp of a path execution is simply its
       index here (plus one);}
    {- one entry per {e block execution} ({!field-blocks},
       {!field-cd_producer});}
    {- one entry per {e statement execution} ({!field-values});}
    {- one entry per {e dynamic dependence slot}
       ({!field-deps}, see {!Wet_ir.Instr.dyn_use_count});}
    {- one entry per {e memory access} ({!field-mem_ops}).}}

    Producer references are {e dynamic statement positions}: the index of
    the producing statement execution in the global statement stream. *)

type t = {
  analysis : Wet_cfg.Program_analysis.t;
  paths : int array;  (** encoded (func, path id); see {!encode_path} *)
  blocks : int array;  (** encoded (func, block) per block execution *)
  cd_producer : int array;
      (** per block execution: dynamic position of the branch instance
          this execution is control dependent on, or [-1] *)
  values : int array;
      (** indexed by dynamic position. For statements without a def port
          this is 0, except stores (the stored value) and value-carrying
          returns (the returned value) — both act as producers whose
          positions must resolve to an operand value. *)
  deps : int array;
      (** producer positions, one per dependence slot, in execution
          order; [-1] when the operand was never written (initial zero) *)
  mem_ops : int array;  (** per load/store: [addr lsl 1 lor is_store] *)
  outputs : int array;
  nstmts : int;  (** total statement executions *)
}

(** [encode_path f id] packs a function id and a path id in one int. *)
val encode_path : int -> int -> int

(** Inverse of {!encode_path}. *)
val decode_path : int -> int * int

(** [encode_block f b] packs a function id and a block label. *)
val encode_block : int -> int -> int

val decode_block : int -> int * int

(** Number of block executions. *)
val num_block_execs : t -> int

(** Number of path executions (= number of WET timestamps after the
    Ball–Larus transformation). *)
val num_path_execs : t -> int

(** The program the trace was produced from. *)
val program : t -> Wet_ir.Program.t
