(** Registries of named counters, gauges and log-scale histograms.

    Metric state lives in {e registries} ({!Local.t}). A worker —
    today the single main domain, tomorrow one OCaml 5 domain per
    shard-compression worker — records into a registry it owns
    exclusively, and registries are folded together downstream with the
    commutative {!merge}: counters sum, gauges resolve by
    last-write-wins on a process-wide write stamp, histograms add
    bucket-wise. No instrument cell is ever shared between domains, so
    recording needs no locks.

    The original single-domain API ([counter] / [add] / [snapshot] / …)
    is kept as a zero-cost facade over one implicit registry, the
    {!default} {e process view} — existing call sites compile and
    behave unchanged, and merges land worker results where the exporters
    already look.

    Instruments are interned by name: the first [counter "x"] creates
    it, later calls return the same cell, so call sites can register at
    module initialisation and mutate from hot loops. Mutations
    ({!add}, {!set}, {!observe}) are no-ops unless {!Sink.enabled} —
    one flag check — while reads always see the current value.

    Naming convention: dot-separated lowercase paths grouped by pipeline
    stage, e.g. ["interp.stmts"], ["build.intern.hits"],
    ["pack.trials_cut"], ["qprof.latency.trace/cf"]. *)

type counter
type gauge
type histogram

type hist_snapshot = {
  h_count : int;
  h_sum : int;
  h_min : int;  (** [max_int] when empty *)
  h_max : int;  (** [min_int] when empty *)
  h_buckets : (int * int) list;  (** non-empty (bucket index, count) *)
}

type reading =
  | Counter of int
  | Gauge of int
  | Histogram of hist_snapshot

(** A metric registry owned by one worker. Create one per domain, record
    into it without synchronisation, then {!merge} it into the process
    view (or any other registry) when the worker finishes. *)
module Local : sig
  type t

  val create : unit -> t

  (** Intern an instrument in this registry.
      @raise Wet_error.Error ([Obs] stage) if the name is already
      registered here as a different instrument kind. *)
  val counter : t -> string -> counter

  val gauge : t -> string -> gauge
  val histogram : t -> string -> histogram

  (** Every instrument registered here, with its current value, sorted
      by name. *)
  val snapshot : t -> (string * reading) list

  (** Zero every instrument (registrations survive). *)
  val reset : t -> unit
end

(** The process view — the implicit registry behind the facade below,
    and the default [?into] target of {!merge}. *)
val default : Local.t

(** [merge ?into src] folds [src] into [into] (default: the process
    view): counters sum, gauges keep the write with the highest
    process-wide stamp, histograms add bucket-wise (count, sum, min,
    max and every bucket). Commutative and associative, so any merge
    order over any partition of recorded work yields the same result;
    [src] is left unchanged. Works whether or not the sink is enabled.
    @raise Wet_error.Error ([Obs] stage) when a name is registered with
    different instrument kinds in the two registries. *)
val merge : ?into:Local.t -> Local.t -> unit

(** Intern a counter in the process view.
    @raise Wet_error.Error ([Obs] stage) if the name is already
    registered as a different instrument kind. *)
val counter : string -> counter

val add : counter -> int -> unit
val incr : counter -> unit
val value : counter -> int

val gauge : string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

(** Histograms bucket by magnitude: bucket 0 holds values [<= 0] and
    bucket [b >= 1] holds values in [[2^(b-1), 2^b)] — 64 buckets cover
    the whole [int] range. Suited to latencies in ns and sizes in
    bytes, where order of magnitude is the interesting part. *)
val histogram : string -> histogram

val observe : histogram -> int -> unit

(** [time h f] runs [f] and observes its wall duration in nanoseconds —
    when disabled it is exactly [f ()], with no clock reads. The
    duration is observed even if [f] raises. *)
val time : histogram -> (unit -> 'a) -> 'a

(** [bucket_of v] is the index [observe] files [v] under. *)
val bucket_of : int -> int

(** [Local.snapshot] of the process view. *)
val snapshot : unit -> (string * reading) list

(** [Local.reset] of the process view. *)
val reset : unit -> unit

(** [Sink.enabled], re-exported for guards in instrumented code. *)
val enabled : unit -> bool
