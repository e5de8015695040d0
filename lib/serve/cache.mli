(** The daemon's resident-container cache.

    A bounded LRU keyed by container path: a hit hands back the
    already-loaded {!Wet_core.Wet.t}, a miss loads the container from
    disk, runs the full {!Wet_core.Wet.validate} invariant sweep once
    (so every later answer from that container is known-sound or
    known-damaged up front) and evicts the least recently used resident
    when over capacity.

    Hits, misses and evictions are counted here only: {!stats} is their
    one reading, which the daemon's [health] verb, [wet top] and
    perfbench print. Not thread-safe by itself — the server serialises
    all cache access under its engine lock. *)

type entry = {
  e_path : string;
  e_wet : Wet_core.Wet.t;
  e_damage : string list;
      (** [Wet.validate] findings at load time; [[]] = sound *)
  mutable e_stamp : int;  (** LRU clock at last use *)
  mutable e_requests : int;  (** requests answered from this entry *)
}

type t

(** [create ~capacity ()] — capacity is clamped to at least 1. *)
val create : capacity:int -> unit -> t

val capacity : t -> int

(** Residents, most recently used first. *)
val resident : t -> entry list

(** Fetch [path], loading (and possibly evicting) on a miss. [Error]
    on unreadable or corrupt containers — the daemon stays up and the
    path stays out of the cache. *)
val find : t -> string -> (entry, string) result

(** [find] without the load, the LRU touch or the hit/miss tally — for
    follow-up work on a request that already fetched the entry. *)
val peek : t -> string -> entry option

(** Lifetime hit/miss/eviction tallies. *)
val stats : t -> int * int * int
