(** Leveled logging on stderr — the one place the pipeline, the bench
    harness and the [wet serve] daemon narrate from.

    Four severities, filtered by a process-wide {!threshold} (initialised
    from the [WET_LOG] environment variable, overridable with the CLI's
    [--log-level]). Text lines go to stderr; an optional JSONL sink
    ({!set_jsonl}) additionally receives every emitted line as a
    self-describing object with a monotonic timestamp, so a long-lived
    daemon's access and error lines can be collected machine-readably.

    The {!status} line is the live-progress UI element (a [\r]-rewritten
    stderr line, drawn by {!Reporter}, the one renderer of progress):
    it honours {!quiet} and the JSONL sink but not the threshold, and
    regular log lines know to terminate an active status line before
    printing so the two never interleave on one row. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

(** Numeric rank, [Debug]=0 .. [Error]=3 — for comparing levels. *)
val severity : level -> int

(** ["debug"], ["info"], ["warn"]/["warning"], ["error"] (case
    insensitive); [Error _] names the valid spellings. *)
val level_of_string : string -> (level, string) result

(** Minimum severity that is emitted. Default [Info], or the value of
    the [WET_LOG] environment variable when set and valid. *)
val threshold : level ref

(** Suppress [Debug]/[Info] text lines and the {!status} line on stderr
    (default [false]). [Warn] and [Error] still print, and the JSONL
    sink still receives everything the threshold admits. *)
val quiet : bool ref

(** Route every emitted line to [oc] as one JSON object per line:
    [{"ts_ms":<monotonic ms since start>,"level":"info","msg":"..."}].
    [None] (the default) disables the sink. The caller owns the
    channel. *)
val set_jsonl : out_channel option -> unit

val debug : ('a, unit, string, unit) format4 -> 'a

(** [info "measuring %s" name] prints "[wet] measuring ..." on stderr
    and flushes. *)
val info : ('a, unit, string, unit) format4 -> 'a

val warn : ('a, unit, string, unit) format4 -> 'a
val error : ('a, unit, string, unit) format4 -> 'a

(** Rewrite the live status line: ["\r<text>"] on stderr, no newline.
    Suppressed by {!quiet}; mirrored to the JSONL sink (level
    ["status"]) when one is set. *)
val status : ('a, unit, string, unit) format4 -> 'a

(** Terminate an active status line with a newline (no-op otherwise). *)
val finish_status : unit -> unit
