(** WET slices (paper §2 "WET slices" and Table 9).

    A backward WET slice of a statement instance is the set of statement
    instances that directly or indirectly influenced it through data and
    control dependences — a superset of a traditional dynamic slice,
    resolved entirely by traversing the compressed representation.

    Each function moves only the given session's cursors, so concurrent
    slices over one shared container need one session each. A criterion
    must name an execution the container holds: a copy in
    [\[0, num_copies)] and an instance below its node's [n_nexec];
    otherwise the slice raises a [Wet_error] [Query] error naming the
    copy, the instance and the valid range.

    A walk is depth-first and pops the instance pushed last; [f] sees
    the instances, and [max_instances] truncates the walk, in that
    order. *)

type result = {
  instances : int;  (** statement instances in the slice *)
  copies : int;  (** distinct statement copies *)
  stmts : int;  (** distinct static statements *)
  truncated : bool;  (** [true] if [max_instances] stopped the walk *)
}

(** {1 Session slices} *)

module Session : sig
  (** [backward s c i] slices backward from instance [i] of copy [c],
      following every dependence slot and the control-dependence edge
      of each visited instance.
      @param max_instances stop after this many instances (default: no
        limit).
      @param f called on every visited [(copy, instance)]. *)
  val backward :
    ?max_instances:int ->
    ?f:(Wet.copy_id -> int -> unit) ->
    Wet.session ->
    Wet.copy_id ->
    int ->
    result

  (** [forward s c i] is the forward WET slice: the instances whose
      computation instance [i] of copy [c] influenced. Control
      dependence is followed at block granularity (the block's first
      statement copy stands for the block). The walk reads the
      out-edges {!Wet.make} derives from the dependence sources, so it
      raises {!Wet.Missing_stream} ["labels.deps"] when that section
      was salvaged away, as {!backward} does. *)
  val forward :
    ?max_instances:int ->
    ?f:(Wet.copy_id -> int -> unit) ->
    Wet.session ->
    Wet.copy_id ->
    int ->
    result

  (** [chop s ~source ~sink] is the {e chop}: the statement instances
      lying on some dependence path from [source] to [sink] — the
      intersection of [source]'s forward slice with [sink]'s backward
      slice. Empty when [sink] does not depend on [source]. *)
  val chop :
    ?max_instances:int ->
    ?f:(Wet.copy_id -> int -> unit) ->
    Wet.session ->
    source:Wet.copy_id * int ->
    sink:Wet.copy_id * int ->
    result
end
