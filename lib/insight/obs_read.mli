(** The one reader of a wet-obs metrics export, the JSONL that
    {!Wet_obs.Export.metrics_jsonl} writes: [wet obs report], [wet obs
    diff], [wet top] (over the daemon's [metrics] verb) and the tests
    read exports through it, back into the readings they were written
    from. *)

(** [parse lines] is the export's schema ([None] for a v1 export,
    which predates the field) and its instruments in line order. Blank
    lines are skipped. [Error] on a line that is not JSON or an
    instrument line that does not decode. *)
val parse :
  string list ->
  (string option * (string * Wet_obs.Metrics.reading) list, string) result

(** [parse] over a file's lines; errors name the file. *)
val load :
  string ->
  (string option * (string * Wet_obs.Metrics.reading) list, string) result

(** ["counter"], ["gauge"] or ["histogram"], as the export names it. *)
val kind : Wet_obs.Metrics.reading -> string

(** Event volume: a counter's or gauge's value, a histogram's
    observation count. *)
val volume : Wet_obs.Metrics.reading -> int
