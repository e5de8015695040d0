(** The curated reference for every instrument name the pipeline
    registers with {!Wet_obs.Metrics} — the table behind
    `wet profile --list-metrics` and DESIGN.md's metric reference.
    Names with a [<placeholder>] segment describe dynamically registered
    families (per-shape query latencies, per-watch match counters). *)

type kind = Counter | Gauge | Histogram

val kind_name : kind -> string

(** [(name-or-pattern, kind, one-line description)], in pipeline
    order. *)
val docs : (string * kind * string) list

(** Description for a concrete registered name, resolving placeholder
    patterns (e.g. ["qprof.latency.trace/cf"]). [None] means the
    name is undocumented — the drift `--list-metrics` exists to catch. *)
val lookup : string -> string option
