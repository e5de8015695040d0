(** Fixed-length mutable bit vectors.

    Used for the hit/miss flags of compressed stream entries and the
    one-bit architectural histories of Table 4. *)

type t

(** [create n] is a vector of [n] bits, all clear. *)
val create : int -> t

(** Number of bits. *)
val length : t -> int

(** [copy v] is an independent vector with the same bits: mutating
    either afterwards never affects the other. *)
val copy : t -> t

(** [blit_prefix ~src ~dst n] copies bits [\[0, n)] of [src] into
    [dst], leaving [dst]'s other bits as they are.
    @raise Invalid_argument if [n] is negative or exceeds either length. *)
val blit_prefix : src:t -> dst:t -> int -> unit

(** [get v i] is bit [i]. @raise Invalid_argument if out of bounds. *)
val get : t -> int -> bool

(** [set v i b] writes bit [i]. @raise Invalid_argument if out of bounds. *)
val set : t -> int -> bool -> unit

(** Number of set bits. *)
val popcount : t -> int
