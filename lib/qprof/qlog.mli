(** The structured query log: one JSONL line per profiled query.

    Every line is self-describing — it carries
    [{"schema":"wet-qlog/1"}] alongside the query-shape fingerprint,
    parameters, latency, the full cost vector and the outcome — so logs
    can be appended to across runs and consumed line by line without a
    header. [wet_cli qlog report] aggregates a log into per-shape
    summaries (hottest shapes first, p50/p95 latency, summed cost
    attribution). *)

(** ["wet-qlog/1"]. *)
val schema : string

type entry = {
  e_shape : string;
  e_params : (string * string) list;
  e_cost : Qprof.cost;  (** the profiled context's inclusive total *)
  e_streams : int;  (** distinct streams the query touched *)
  e_queries : string list;  (** entry points the query hit *)
  e_outcome : string;
}

val entry_of_profile : Qprof.profile -> entry
val to_json : entry -> Wet_insight.Json.t

(** Missing numeric fields default to 0 and unknown fields are
    ignored, so lines from older builds, which also logged Sequitur
    counters, still load; [Error] on a wrong or missing schema tag or
    missing shape. *)
val of_json : Wet_insight.Json.t -> (entry, string) result

(** One JSONL line (no trailing newline). *)
val line : Qprof.profile -> string

val parse_line : string -> (entry, string) result

(** Append one profiled query to a log file (creating it if needed). *)
val append : string -> Qprof.profile -> unit

(** Read a whole log; blank lines are skipped, the first malformed line
    is an [Error] with its line number. *)
val load : string -> (entry list, string) result

type shape_summary = {
  s_shape : string;
  s_count : int;
  s_errors : int;  (** entries whose outcome is not ["ok"] *)
  s_wall_total_ns : int;
  s_wall_p50_ns : float;
  s_wall_p95_ns : float;
  s_cost : Qprof.cost;  (** summed inclusive costs *)
}

(** Group entries by shape, hottest (total wall) first. *)
val summarize : entry list -> shape_summary list
