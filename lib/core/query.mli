(** Profile-subset queries over a (compressed) WET (paper §2 and §5.2).

    All queries work by moving stream cursors; none of them decompress a
    stream wholesale. On a tier-1 WET the streams are raw arrays, on a
    tier-2 WET they are bidirectional compressed streams — the query code
    is identical, which is exactly the property the paper's two-tier
    design is after.

    The API has two layers:

    - {!Session}: the queries. Each takes a {!Wet.Session.t} — one per
      concurrent reader over a shared container — and moves only that
      session's cursors. Any interleaving of N sessions is
      byte-identical to the serial path.
    - Structure lookups and cost estimation ({!copies_matching},
      {!estimate}): read only the immutable container, no session
      needed.

    The extractions ([control_flow], [load_values], [addresses], …)
    push every instance into an effectful [f] and return only a count,
    which keeps the extraction loops allocation-free. *)

type direction = Forward | Backward

(** {1 Session queries} *)

module Session : sig
  (** [park s dir] parks [s]'s node timestamp cursors at the start
      (before a forward control-flow extraction) or at the end (before
      a backward one). A fresh session is already parked at the
      start. *)
  val park : Wet.session -> direction -> unit

  (** [control_flow s dir ~f] regenerates the complete dynamic
      control-flow trace by following dynamic node successors and
      timestamp sequences (paper: "Control flow path"). Calls
      [f func block] for every block execution, in execution order
      ([Forward]) or reverse ([Backward]). Returns the number of block
      executions visited.

      The session's timestamp cursors must be parked at the matching
      end; the opposite end is where they finish, so a forward pass
      followed by a backward pass needs no re-parking. Raises a
      [Wet_error] [Query] error if the cursors are mispositioned. *)
  val control_flow : Wet.session -> direction -> f:(int -> int -> unit) -> int

  (** [values_of_copy s c ~f] iterates the full value sequence of copy
      [c] (instances in order). Raises a [Wet_error] [Query] error if
      [c] has no def. *)
  val values_of_copy : Wet.session -> Wet.copy_id -> f:(int -> unit) -> unit

  (** Per-instruction load value trace (paper Table 7): iterates every
      [Load] copy's value sequence; [f copy value] per instance.
      Returns the total number of values extracted. *)
  val load_values : Wet.session -> f:(Wet.copy_id -> int -> unit) -> int

  (** Per-instruction load/store address trace (paper Table 8): for
      every memory-access copy, resolves the address operand's producer
      and reconstructs its value for each instance. Returns the total
      number of addresses extracted. *)
  val addresses : Wet.session -> f:(Wet.copy_id -> int -> unit) -> int

  (** [locate_time s ts] finds the node execution holding global
      timestamp [ts]: [(node id, execution index)]. [None] if [ts] is
      outside [\[1, path_execs\]]. Timestamps are unique, so at most
      one node matches. *)
  val locate_time : Wet.session -> int -> (Wet.node_id * int) option

  (** [control_flow_from s ~start_ts ~steps ~f] regenerates the partial
      control-flow trace beginning at the node execution with timestamp
      [start_ts] and following [steps] further path executions (fewer
      at the end of the trace) — the paper's "generate part of the
      program path starting at any execution point". Returns the number
      of block executions emitted. Uses and leaves the session's
      timestamp cursors wherever the walk needs them. *)
  val control_flow_from :
    Wet.session -> start_ts:int -> steps:int -> f:(int -> int -> unit) -> int
end

(** {1 Structure lookups and cost estimation}

    These read only the immutable container — safe from any thread,
    no session involved. *)

(** All copies whose statement satisfies the predicate. *)
val copies_matching : Wet.t -> (Wet_ir.Instr.t -> bool) -> Wet.copy_id list

(** Plan-time step prediction for one Explain stream class. *)
type class_estimate = {
  est_kind : string;
      (** Explain stream class: ["ts"], ["uvals"], ["pattern"],
          ["label.src"], ["label.dst"] *)
  est_steps : int;
      (** predicted ledger steps: forward + backward, a seek's steps
          included (see {!Wet_bistream.Telemetry}) *)
  est_exact : bool;  (** the model is exact, not a lower bound *)
}

(** [estimate t shape] predicts, per stream class, how many cursor steps
    the query shape [shape] (a [Wet_qprof] fingerprint such as
    ["trace/cf"] or ["slice/backward"]) will pay on [t] — the estimated
    side of the CLI's [--analyze] table. ["trace/cf"] is exact (one
    timestamp revealed per path execution; peeks, and the rewind that
    parks a finished walk's cursors, decode nothing). The value and
    address shapes are lower bounds read off the container's structure:
    an operand with no producer reads nothing, a local producer reads no
    label, and a producer whose group has no pattern reads no pattern
    stream; no run of the shape pays fewer steps. The [at] and slice
    shapes have no model — what they read depends on where the
    timestamp or the dependences land — so they, like unknown shapes,
    return [[]]. *)
val estimate : Wet.t -> string -> class_estimate list
