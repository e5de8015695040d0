(** Serialising the sink's state: a JSONL metrics dump and a Chrome
    trace-event file.

    The Chrome format is the JSON object form ([{"traceEvents": [...]}])
    with complete events ([ph = "X"]) for spans and instant events
    ([ph = "i"]) for heartbeats, loadable in [chrome://tracing] and
    Perfetto. Timestamps are microseconds relative to the last
    {!Sink.enable}. *)

(** The format version stamped on both exports: ["wet-obs/2"]. v1
    files (no [schema] field) predate the versioning; [wet obs diff]
    still reads them but flags the downgrade. *)
val schema : string

(** A [{"schema":"wet-obs/2"}] header line, then one JSON object per
    instrument in the process registry ({!Metrics.snapshot}), one per
    line, sorted by name:
    [{"type":"counter","name":...,"value":...}],
    [{"type":"gauge",...}] and [{"type":"histogram","name":...,"count":
    ...,"sum":...,"min":...,"max":...,"buckets":[{"lo":..,"hi":..,
    "count":..},...]}]. *)
val metrics_jsonl : unit -> string

(** [add_json_string b s] appends [s] to [b] as a JSON string literal,
    quotes included: the double quote, backslash, newline, return and
    tab take their two-character escapes, and other control characters
    a [\u] escape. The one string escaper of [wet_obs]: the log's JSONL
    sink uses it too. *)
val add_json_string : Buffer.t -> string -> unit

(** The full trace-event JSON document for {!Sink.events}, with a
    top-level ["schema"] field (ignored by trace viewers). *)
val chrome_trace : unit -> string

val write_metrics_jsonl : string -> unit
val write_chrome_trace : string -> unit
