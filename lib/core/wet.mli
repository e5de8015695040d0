(** The Whole Execution Trace: a labeled graph over Ball–Larus path nodes
    (paper §2, after the §3 customized compression).

    {b Nodes} are executed Ball–Larus paths. A node owns one {e statement
    copy} per statement occurrence along its path (paper §3.1: a basic
    block belonging to several paths is duplicated per path). Each node
    execution gives every copy in it exactly one execution instance, so a
    copy's local instance index equals the node execution index, and the
    node's timestamp sequence maps instances to global time.

    {b Node labels} (paper §3.2): the timestamp sequence, and the value
    sequences of def-bearing copies stored as per-copy unique-value
    arrays ([UVals]) plus one shared index [Pattern] per input group —
    [Values(c)(i) = UVals(c)(Pattern(group c)(i))].

    {b Edge labels} (paper §3.3): data/control dependence edges carry
    [(consumer instance, producer instance)] pair sequences in {e local}
    timestamps. Edges whose producer always lies in the same node
    execution carry no label at all ({!Local}); labeled edges between the
    same pair of nodes with identical sequences share one label record.

    Every label sequence is a {!Wet_bistream.Stream.t}: raw arrays after
    tier-1, bidirectionally compressed streams after tier-2
    ({!Builder.pack}). Queries work identically on both. Equal sequences
    of one stream class (unique values, patterns, consumer sides,
    producer sides) are one physically shared body, whoever owns them;
    timestamps never repeat.

    The nodes hold no stream: each stream sits in a table beside them,
    indexed by its owner, as the container stores it.

    {b Concurrency contract.} A {!t} is an immutable container: share it
    freely between threads and domains. All traversal state lives in
    {!Session.t} handles, each of which is single-owner — one session
    per concurrent reader ([wet serve] opens one per connection, each
    CLI command one for its queries). *)

module Stream = Wet_bistream.Stream

type seq = Stream.t

type copy_id = int
(** Global dense id of a statement copy. *)

type node_id = int

(** Where a dependence slot's producer comes from. *)
type dep_source =
  | No_dep  (** the operand was never written (initial zeros) *)
  | Local of copy_id
      (** producer is this copy, in the same node and the same execution
          instance; no label is stored (paper §3.3, local edges) *)
  | Remote of edge list
      (** labeled dependence edges; a given consumer instance appears in
          exactly one of them *)

and edge = {
  e_src : copy_id;
  e_dst : copy_id;
  e_slot : int;
  e_labels : labels;
}

and labels = {
  l_id : int;  (** unique id; shared edges share the same [labels] *)
  l_dst : seq;  (** consumer instances, strictly ascending *)
  l_src : seq;  (** producer instances, aligned with [l_dst] *)
}

type node = {
  n_id : node_id;
  n_func : int;
  n_path : int;  (** Ball–Larus path id within the function *)
  n_blocks : int array;  (** block labels along the path *)
  n_stmts : int array;  (** static statement ids, in path order *)
  n_block_start : int array;
      (** index in [n_stmts] of each block's first statement *)
  n_copy_base : copy_id;  (** copies are [n_copy_base + offset] *)
  n_nexec : int;  (** number of executions of this path *)
  n_succs : node_id array;  (** dynamic control-flow successor nodes *)
  n_groups : copy_id array array;
      (** the input groups (paper §3.2): copies depending on the same
          inputs, each group its def-bearing copies in path order *)
}

(** Build-time statistics used for the "original" (uncompressed,
    per-basic-block) size accounting of §5. *)
type stats = {
  stmts_executed : int;
  block_execs : int;
  path_execs : int;
  def_execs : int;  (** executions of statements with a def port *)
  dep_instances : int;  (** dynamic dependences with a real producer *)
  cd_instances : int;  (** per-statement control-dependence instances *)
  local_dep_instances : int;  (** dependences inferable from node labels *)
  shared_label_values : int;
      (** label-sequence values eliminated by cross-edge sharing *)
}

(** {1 The immutable container}

    Every field is read-only after construction, and the streams inside
    are pristine compressed bodies that queries never mutate — a [t] may
    be shared between any number of concurrent sessions, and saving it
    writes the same bytes whatever queries ran before.

    A container stores only the program, the nodes and their labels;
    [analysis] is the program's, and the predecessors, copy tables and
    indexes are derived from the nodes by {!make}. *)

type t = {
  program : Wet_ir.Program.t;
  analysis : Wet_cfg.Program_analysis.t;
  nodes : node array;
  node_ts : seq array;  (** per node: global timestamps, one per execution *)
  node_patterns : seq option array array;
      (** per node, per group: the group's pattern, [None] for a constant
          group (no sources), whose every instance reads [UVals(c)(0)] *)
  node_cd : dep_source array array;
      (** per node: the control-dependence source of each block position *)
  node_preds : node_id array array;
      (** per node: the nodes naming it a successor, ascending *)
  copy_node : node_id array;
  copy_stmt : int array;  (** static statement id per copy *)
  copy_uvals : seq option array;  (** unique values of def-bearing copies *)
  copy_group : int array;  (** group index within the node, or -1 *)
  copy_deps : dep_source array array;
      (** per copy, per dependence slot (register uses first, then the
          memory / return-value slot; see
          {!Wet_ir.Instr.dyn_use_count}) *)
  copy_local_out : copy_id list array;
      (** copies consuming this copy through [Local] slots *)
  copy_remote_out : edge list array;  (** out-edges (forward traversal) *)
  stmt_copies : copy_id list array;
      (** copies of each static statement, across nodes *)
  first_node : node_id;  (** node holding timestamp 1 *)
  last_node : node_id;
  stats : stats;
  tier : [ `Tier1 | `Tier2 ];
  damage : string list;
      (** container sections that were corrupt and replaced by
          placeholders during a salvage load ({!Store.load}
          [~salvage:true]); [[]] for a built or cleanly loaded WET.
          Queries touching a damaged section raise {!Missing_stream}. *)
}

(** One reader's private traversal state over a shared container; see
    {!Session}. *)
type session

(** Raised (with the container section name, e.g. ["labels.values"])
    when a query touches data lost to a salvage load. *)
exception Missing_stream of string

(** [damaged t sec] is [true] if section [sec] was salvaged away. *)
val damaged : t -> string -> bool

(** [make ~program ~analysis ~nodes ~node_ts …] assembles a WET from
    its stored parts, deriving [node_preds] from the successors and
    [copy_node], [copy_stmt], [copy_group], [stmt_copies],
    [copy_local_out] and [copy_remote_out] from the nodes and the
    dependence sources ([node_cd] and [copy_deps]). The builder,
    {!Builder.pack} and the container's loader all assemble through
    it, so a loaded WET's indexes are the built one's, list order
    included.
    @raise Invalid_argument naming the first inconsistency among what
      the derivation reads: a table whose length is not its owners'
      count, successors outside the nodes, node copy ranges that do not
      tile [\[0, ncopies)] in node order (ncopies being the length of
      [copy_deps]), statement ids outside the program, empty groups,
      group members outside their node, control sources without a
      block, edge endpoints or [Local] producers outside the copies,
      and a first or last node outside the nodes. *)
val make :
  program:Wet_ir.Program.t ->
  analysis:Wet_cfg.Program_analysis.t ->
  nodes:node array ->
  node_ts:seq array ->
  node_patterns:seq option array array ->
  copy_uvals:seq option array ->
  node_cd:dep_source array array ->
  copy_deps:dep_source array array ->
  first_node:node_id ->
  last_node:node_id ->
  stats:stats ->
  tier:[ `Tier1 | `Tier2 ] ->
  damage:string list ->
  t

(** Number of statement copies. *)
val num_copies : t -> int

(** The node owning a copy. *)
val node_of_copy : t -> copy_id -> node

(** Offset of a copy inside its node's [n_stmts]. *)
val copy_offset : t -> copy_id -> int

(** The static statement of a copy. *)
val instr_of_copy : t -> copy_id -> Wet_ir.Instr.t

(** Copies of a given static statement, across all nodes. *)
val copies_of_stmt : t -> int -> copy_id list

(** Structural invariant checker: stream lengths consistent with node
    execution counts, timestamps strictly increasing per path and
    covering [1..path_execs] exactly once, pattern indices inside their
    group's unique values, dependence edges pairing equal numbers of
    live instances, dependence slots matching their statements. The
    predecessors, copy maps and indexes are {!make}'s, consistent by
    construction, so they are not re-checked. Returns
    human-readable violations ([[]] = sound). Checks that would touch a
    {!damage}d section are skipped, so a salvaged WET validates clean
    when its surviving sections are sound. Reads pure stream snapshots
    ({!Wet_bistream.Stream.contents}), so it never moves any cursor —
    safe to run concurrently with live sessions. *)
val validate : t -> string list

(** {1 Sessions}

    A session owns one cursor per stream, each minted when a query
    first uses it, the {!Wet_bistream.Telemetry.tally} every one of its
    cursors counts its steps in, and the {!Wet_watch.Explain.recorder}
    its queries note their entry points in. Opening one is
    O(nodes + copies + groups) and allocates no cursor; no
    decompression happens until a query walks a cursor.

    Sessions are single-owner: never share one between threads. Any
    interleaving of queries on N sessions over one container produces
    answers byte-identical to running them serially on one session —
    this is what lets [wet serve] answer reads concurrently. *)

(** [open_session t] mints a private session over [t] with a fresh
    tally and a fresh (disarmed) recorder.
    @param strict raise a [Wet_error] [Query] error immediately if [t]
      carries salvage {!damage} (default [false]: the session opens and
      queries on damaged sections raise {!Missing_stream} lazily).
    @param tally count steps in an existing tally instead (default: a
      fresh one).
    @param recorder note entry points in an existing recorder instead
      (default: a fresh one). *)
val open_session :
  ?strict:bool ->
  ?tally:Wet_bistream.Telemetry.tally ->
  ?recorder:Wet_watch.Explain.recorder ->
  t ->
  session

module Session : sig
  type wet := t

  type t = session

  (** The shared container this session reads. *)
  val wet : t -> wet

  (** The tally this session's cursors count their steps in. *)
  val tally : t -> Wet_bistream.Telemetry.tally

  (** The recorder this session's queries note their entry points in;
      a qprof context over the session arms it. *)
  val recorder : t -> Wet_watch.Explain.recorder

  (** This session's timestamp cursor over node [n] (minted on first
      use), the one the control-flow walks move. Steps, seeks and finds
      count in the session's tally as {!Stream.Cursor} counts them;
      peeks are pure reads and count nothing. *)
  val ts_cursor : t -> node -> Stream.Cursor.t

  (** This session's [(dst, src)] cursor pair over an edge label
      (minted on first use, memoized by [l_id]). *)
  val label_cursors : t -> labels -> Stream.Cursor.t * Stream.Cursor.t

  (** {2 Label queries} *)

  (** [value_of_copy s c i] reconstructs the value produced by instance
      [i] of copy [c] through the group pattern and unique values.
      Raises a [Wet_error] [Query] error if [c] has no def port. *)
  val value_of_copy : t -> copy_id -> int -> int

  (** [resolve_dep s c i slot] is the producer instance
      [(copy, instance)] feeding slot [slot] of instance [i] of copy
      [c], or [None] for [No_dep] or an instance the slot has no event
      for. *)
  val resolve_dep : t -> copy_id -> int -> int -> (copy_id * int) option

  (** [resolve_cd s c i] is the branch instance instance [i] of copy
      [c] is control dependent on, if any. Control sources are stored
      with the data dependences, so it raises {!Missing_stream}
      ["labels.deps"] when that section was salvaged away. *)
  val resolve_cd : t -> copy_id -> int -> (copy_id * int) option

  (** [timestamp s c i] is the global timestamp of instance [i] of copy
      [c]'s node execution (moves the node's timestamp cursor). *)
  val timestamp : t -> copy_id -> int -> int
end
