(** The [wet top] live dashboard: a rate-limited poll loop over a serve
    daemon's [metrics] and [health] verbs.

    Each tick reads the [metrics] lines through
    {!Wet_insight.Obs_read}. A request is counted and timed once, by its
    qprof context, so the tick merges the [qprof.latency.<shape>]
    histograms bucket-wise: their count is the requests answered, its
    delta the request rate, and their buckets give latency p50/p95.
    Cache and ring figures come from [health]. It then
    either repaints a TTY screen or appends one JSONL snapshot object —
    snapshots carry a strictly increasing [seq] and monotonic
    [elapsed_ms], and ticks never fire closer together than the
    requested interval, so machine consumers can trust the stream's
    ordering and pacing. *)

type mode = Tty | Jsonl

type opts = {
  socket : string;
  mode : mode;
  interval_ms : int;  (** clamped to at least 100 *)
  count : int;  (** stop after N snapshots; 0 = run until interrupted *)
  instruments : int;  (** hottest-instrument rows on the TTY screen *)
}

(** Poll until [count] snapshots have been emitted (or forever when 0).
    [Error] on connection loss or a malformed daemon answer. *)
val run : opts -> (unit, string) result

(** Estimate the [q]-quantile (0..1) of a histogram from its
    log-scale [(bucket index, count)] list
    ({!Wet_obs.Metrics.hist_snapshot}'s [h_buckets]): the upper bound of
    the bucket holding the quantile, in the histogram's unit. 0 when
    empty. Exposed for the test suite. *)
val quantile_of_buckets : q:float -> (int * int) list -> int
