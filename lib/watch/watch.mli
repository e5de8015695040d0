(** The tracer driver: declarative observation requests evaluated inside
    the tracer, in the architecture of Deransart's tracer driver and
    Ducassé et al.'s rigorous tracer design (PAPERS.md) — the filter
    runs {e at the source}, so only matching events cost anything.

    A {!probe} pairs a compiled {!Filter.t} with an {!action}; {!arm}
    installs a set of probes as one dispatch closure. The interpreter
    reports events through {!emit} — when nothing is armed that is a
    call to a no-op closure guarded by {!armed}, preserving the
    no-overhead-when-disabled guarantee of the [wet_obs] layer. Probe
    match counts also register as [wet_obs] counters
    (["watch.<name>.matches"]), so they appear in [--metrics-out]
    dumps whenever the metrics sink is armed. A recorded match has one
    home, its probe's own flight recorder ({!ring}): [wet watch] prints
    it and [--jsonl] exports it. *)

type action =
  | Count  (** count matches only *)
  | Capture  (** record every match in the flight recorder *)
  | Sample of int  (** record 1-in-N matches (first, N+1st, ...) *)
  | Stop_at of int
      (** watchpoint: record matches until the K-th, then remember its
          timestamp ({!stopped}) — feed it to [Query.locate_time] or a
          slice criterion. Counting continues; execution does not stop
          (the WET is queried post-mortem, so the "stop" is the
          observation's, not the program's). *)

type probe

(** [probe prog filter action] compiles [filter] against [prog].
    [ring] bounds the flight recorder (default 16; unused for [Count]).
    [name] labels reports and the [wet_obs] counter (default
    ["watch"]).
    @raise Filter.Unknown_function on an unresolvable [Fn] atom.
    @raise Invalid_argument on a non-positive sample period or match
    index. *)
val probe :
  ?name:string -> ?ring:int -> Wet_ir.Program.t -> Filter.t -> action -> probe

val name : probe -> string
val filter : probe -> Filter.t
val action : probe -> action

(** Matches so far (all matches, recorded or not). *)
val matches : probe -> int

(** The probe's flight recorder ([None] for [Count] probes). *)
val ring : probe -> Ring.t option

(** The K-th match's timestamp, once a [Stop_at K] probe has seen it. *)
val stopped : probe -> int option

(** Install probes as the dispatch closure ([\[\]] disarms). *)
val arm : probe list -> unit

val disarm : unit -> unit

(** One flag read — the tracer's guard around {!emit} sites. *)
val armed : unit -> bool

(** [emit kind func block pos value addr ts] reports one event
    ([kind] is {!Event.kind_index}; [ts] the global timestamp of the
    enclosing path execution). A single indirect closure call; each
    armed probe applies its kind-mask fast reject first. *)
val emit : int -> int -> int -> int -> int -> int -> int -> unit

(** Arm around [f], always disarming afterwards. *)
val with_armed : probe list -> (unit -> 'a) -> 'a
