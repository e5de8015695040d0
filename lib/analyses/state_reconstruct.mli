(** Reconstructing memory state at an arbitrary execution point.

    The WET's unified labels make a time-travel query possible that no
    single profile supports: "what did memory hold at timestamp [t]?"
    For every store instance the node timestamps give {e when} it ran,
    the dependence edges give {e which address} it wrote and {e which
    value} it stored — so the memory image at [t] is the latest store to
    each address no later than [t], plus zeros never written.

    Cost is proportional to the number of store executions up to [t],
    plus one timestamp read per store copy: a node's timestamps strictly
    increase, so each copy's first instance past [t] ends its scan. It
    needs no re-execution of the program. *)

type t

(** [at_session s ~ts] reconstructs the memory image as of global
    timestamp [ts] (inclusive: effects of the path execution stamped
    [ts] are visible), moving only session [s]'s cursors. Raises a
    [Wet_error] [Query] error if [ts] is out of range. *)
val at_session : Wet_core.Wet.session -> ts:int -> t

(** Value of an address ([0] if never written by then). *)
val read : t -> int -> int

(** Addresses written by timestamp [ts], ascending. *)
val written : t -> int list

(** [global wet state name] reads a named global scalar / region base.
    @raise Not_found for unknown names. *)
val global : Wet_core.Wet.t -> t -> string -> int
