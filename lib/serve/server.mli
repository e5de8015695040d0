(** The wet_serve daemon: a long-lived query service over a Unix-domain
    socket, observable from birth.

    One thread accepts; each connection gets its own handler (a domain
    while the [domains] budget lasts, then a sys-thread) reading
    wet-serve/1 request lines. The resident {!Wet_core.Wet.t}
    containers are immutable and shared; every connection opens its own
    {!Wet_core.Wet.session} over them, so read verbs dispatch without
    any global lock — the engine mutex guards cache admission only.
    Every request runs inside a {!Wet_qprof.Qprof.run} context, its one
    count and latency ([qprof.latency.<shape>]), and appends to the
    shared wet-qlog/1 access log when one is configured. Errors, bytes,
    connections and session opens and reuses are counted in the process
    registry ({!Wet_obs.Metrics}), which the [metrics] verb exports.
    Request spans have one home, a bounded {!Ring}: [handle] pushes each
    one there, the [watch] verb replays it, [health] reports its counts,
    and library spans (a cache miss's [store.load]) go nowhere, so the
    sink's export buffer stays empty however long the daemon runs.

    Memory is bounded by the cache, not by history: a connection is
    forgotten when it closes, and before a connection opens a session
    it drops every session it holds over a container the cache no
    longer holds. What stays resident is the cached containers plus the
    sessions of live connections over them. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  cache_capacity : int;  (** resident WET containers (LRU) *)
  qlog : string option;  (** wet-qlog/1 access-log path *)
  ring_capacity : int;  (** flight-recorder entries *)
  domains : int;
      (** connection handlers get their own domain up to this budget
          (parallel reads over shared containers), then fall back to
          sys-threads; default [recommended_domain_count - 2], clamped
          at 0 *)
}

val default_config : socket:string -> config

(** Serve until a [shutdown] request arrives; returns cleanly after the
    socket is closed and unlinked. A stale socket file (left by a
    killed predecessor, connection refused) is removed and rebound; a
    live one is an error.
    @raise Wet_error.Error ([Obs] stage) when the socket cannot be
    bound or is already being served. *)
val run : config -> unit
