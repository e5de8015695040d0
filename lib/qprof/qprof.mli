(** Request-scoped query profiling: exact per-query cost attribution.

    A profiling context is a view over its scope's cost ledger
    ({!Wet_bistream.Telemetry}): it brackets one query (or any unit of
    work) with snapshots of the ledger's totals, the wall clock and the
    GC allocation counters, and opens a ledger window for the rows of
    the streams it touches. It is the only reader of those rows: the
    [--analyze] report, the qlog and the [qprof.*] instruments all
    print what it returns.
    The difference between the two snapshots is, by construction,
    exactly the work done inside the context — whichever streams it
    landed on — so per-query costs reconcile with the tally to the step,
    and the context's rows sum to its cost.

    Contexts are flat: a scope holds at most one open context, and a
    context's total goes straight into the process registry's [qprof.*]
    counters, so the counters move by exactly the sum of the profiles'
    totals.

    When no context is active nothing here runs at all: the only
    always-on cost is the ledger's own counting inside each cursor
    step. *)

(** Work attributed to one context, in physical units. The ledger
    fields follow {!Wet_bistream.Telemetry}'s counting rule (raw steps
    count in [c_fwd]/[c_bwd]/[c_bits] but have no dictionary). *)
type cost = {
  c_fwd : int;  (** forward steps, all streams *)
  c_bwd : int;  (** backward steps *)
  c_switches : int;  (** steps that reversed their cursor's direction *)
  c_hits : int;  (** dictionary-hit entries decoded (packed streams) *)
  c_misses : int;  (** verbatim entries decoded (packed streams) *)
  c_bits : int;  (** stored bits touched *)
  c_seeks : int;  (** repositioning calls *)
  c_seek_steps : int;  (** steps taken inside them *)
  c_wall_ns : int;
  c_alloc_words : int;  (** words allocated (minor + major - promoted) *)
}

val zero_cost : cost
val add_cost : cost -> cost -> cost

(** [c_fwd + c_bwd]. *)
val decode_steps : cost -> int

(** Every field non-negative (holds for every profile's total). *)
val nonneg_cost : cost -> bool

type profile = {
  p_shape : string;  (** query-shape fingerprint, e.g. ["trace/cf"] *)
  p_params : (string * string) list;  (** caller-supplied parameters *)
  p_total : cost;  (** the cost of the whole context *)
  p_streams : Wet_watch.Explain.stream_stats list;
      (** the ledger rows of the streams touched while the context was
          open; they sum to [p_total]'s ledger fields *)
  p_queries : string list;
      (** the entry points noted while the context was open, oldest
          first *)
  p_outcome : string;  (** ["ok"] or ["error: ..."] *)
}

(** {1 Scopes}

    A scope is one independent profiling surface: at most one open
    context, the {!Wet_bistream.Telemetry.tally} its snapshots bracket
    and the {!Wet_watch.Explain.recorder} its queries note entry points
    in. Every function takes the scope it acts on. A caller builds one
    scope per session, from the session's own tally and recorder —
    [wet serve] per connection, each CLI command for its one session —
    so each profile sees only its own session's decode work. Scopes,
    like sessions, are single-owner: never share one scope between two
    threads. *)

type scope

(** A fresh scope over a session's own [Wet.Session.tally] and
    [Wet.Session.recorder], so profiles attribute that session's
    work. *)
val make_scope :
  tally:Wet_bistream.Telemetry.tally ->
  recorder:Wet_watch.Explain.recorder ->
  unit ->
  scope

(** {1 Contexts} *)

(** [run ~scope ?params shape f] profiles [f ()] in a context on
    [scope]: the result (or the exception, captured) together with the
    profile; an exception is recorded as an ["error: ..."] outcome.

    The context opens the scope's ledger window and arms its
    {!Wet_watch.Explain} recorder, so the query's entry points are
    noted; the wall clock is read last, so context setup is not charged
    to the query. When [f] returns, the context's total is added to the
    [qprof.*] counters and its wall observed once, in
    [qprof.latency.<shape>]: that histogram's count and sum are the one
    count and the one latency of a query, which nothing else records.
    @raise Invalid_argument, before [f] runs, if a context is already
    open on [scope] (or on another scope over the same tally). *)
val run :
  scope:scope ->
  ?params:(string * string) list ->
  string ->
  (unit -> 'a) ->
  ('a, exn) result * profile

(** [run], re-raising the exception after the profile is recorded. *)
val profiled :
  scope:scope ->
  ?params:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a * profile

(** {1 Advice} *)

(** Human-readable advisory hints read from the cost vector alone, and
    quoting only figures the [--analyze] cost table prints: heavy
    direction switching (a cursor cache would help), most steps taken
    inside seeks (batch in stream order), poor dictionary hit rates
    (tier-1 may win), raw-only traversal (steps are O(1)). Empty when
    nothing stands out. *)
val hints : profile -> string list
