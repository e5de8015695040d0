(** Structured pipeline errors.

    Every dynamic failure of the interpret/build/pack pipeline raises one
    {!Error} carrying the {!stage} that failed and a human message — the
    pipeline-side mirror of [Store.Corrupt] on the container side. The
    CLI formats these uniformly ([error: runtime error: …]) instead of
    pattern-matching a zoo of [Failure] strings, and tests can assert on
    the stage without parsing messages. *)

type stage =
  | Interp  (** dynamic execution error (bad input, budget, memory) *)
  | Build  (** tier-1 sink/splicer misuse or internal inconsistency *)
  | Pack  (** tier-2 packing misuse *)
  | Obs  (** observability-layer misuse (registry, export) *)
  | Journal  (** checkpoint-journal format or recovery failure *)
  | Query  (** read-side misuse: bad timestamps/ports, sessions on
               damage (the [Wet.Session] / [Query] surface) *)

type t = { stage : stage; msg : string }

exception Error of t

(** [stage_name Interp] is ["runtime error"] — the historical prefix the
    CLI printed for interpreter failures — and ["build error"] /
    ["pack error"] / ["obs error"] for the other stages. *)
val stage_name : stage -> string

(** ["<stage_name>: <msg>"]. Also what [Printexc.to_string] shows; the
    printer is registered at module init. *)
val message : t -> string

(** [fail stage fmt …] raises {!Error} with a formatted message. *)
val fail : stage -> ('a, unit, string, 'b) format4 -> 'a
