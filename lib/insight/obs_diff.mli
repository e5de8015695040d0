(** A/B comparison of two instrument snapshots, as {!Obs_read} reads
    them — the logic behind `wet obs diff`, in the library so its edge
    cases (notably two exports with {e no} instrument in common, which
    must read as "no overlap", never as "nothing changed") are
    unit-testable. Instruments compare by {!Obs_read.volume}. *)

type row = {
  d_name : string;
  d_kind : string;  (** kind as recorded in the A export *)
  d_a : int;
  d_b : int;
  d_rel : float;  (** signed [(b - a) / max 1 |a|] *)
}

type t = {
  d_overlap : int;  (** instruments present in both exports *)
  d_changed : row list;  (** sorted by [|d_rel|] descending, then name *)
  d_only_a : string list;
  d_only_b : string list;
}

val diff :
  (string * Wet_obs.Metrics.reading) list ->
  (string * Wet_obs.Metrics.reading) list ->
  t
