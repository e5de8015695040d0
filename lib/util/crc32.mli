(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum guarding
    WET container sections and journal records. Values are in
    [0, 0xFFFFFFFF], carried in an OCaml [int]. It is computed eight
    bytes a step (slicing-by-8); the value is the bytewise one. *)

(** [sub s pos len] is the CRC-32 of [s.[pos .. pos+len-1]].
    @raise Invalid_argument if the range is outside [s]. *)
val sub : string -> pos:int -> len:int -> int

(** [string s] is [sub s ~pos:0 ~len:(String.length s)]. *)
val string : string -> int
