(** The bounded flight recorder of the [wet serve] daemon: the one home
    of its request spans.

    Unlike {!Wet_obs.Sink}'s event buffer — which grows without bound
    for end-of-run export — this ring keeps the last [capacity] events
    and {e counts} what falls out of the window, so a long-lived
    process (the daemon) can stay armed forever in bounded memory and
    still account for every event it saw.

    The daemon {!push}es each request span here as the request
    finishes, and the [watch] verb replays the window. {!push} is
    protected by a [Mutex.t], so producers on different domains can
    share one ring. *)

type stats = {
  total : int;  (** events pushed over the ring's lifetime *)
  dropped : int;  (** events that fell out of the bounded window *)
  retained : int;  (** events currently held: [min total capacity] *)
  capacity : int;
}

type t

(** [create ?capacity ()] — default capacity 4096 entries.
    @raise Wet_error.Error ([Obs] stage) when the capacity is not
    positive. *)
val create : ?capacity:int -> unit -> t

(** Append one event, overwriting (and counting as dropped) the oldest
    when full. Thread-safe. *)
val push : t -> Wet_obs.Sink.event -> unit

val stats : t -> stats

(** The retained window, oldest to newest, with the stats at the same
    instant. Thread-safe. *)
val snapshot : t -> Wet_obs.Sink.event list * stats
