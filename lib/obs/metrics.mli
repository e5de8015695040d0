(** The process registry of named counters, gauges and log-scale
    histograms — the one place a metric lives.

    Every cell is exact under concurrent domains: a counter or gauge is
    an [Atomic], and a histogram takes its own mutex for each
    observation, so two domains bumping one instrument lose nothing.
    Interning, {!snapshot} and {!reset} serialise on the registry's
    lock. Instruments are bumped per run, shard, finalize, selection
    trial, journal record, save or load, query, request, progress tick
    or watch match, never per decode step or interpreted statement
    (DESIGN lists the sites), so that synchronisation stays off the hot
    loops.

    Instruments are interned by name: the first [counter "x"] creates
    it, later calls return the same cell, so call sites can register at
    module initialisation and bump from wherever they run. Mutations
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

(** Intern a counter.
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

(** Every registered instrument with its current value, sorted by
    name. *)
val snapshot : unit -> (string * reading) list

(** Zero every instrument (registrations survive). *)
val reset : unit -> unit

(** [Sink.enabled], re-exported for guards in instrumented code. *)
val enabled : unit -> bool
