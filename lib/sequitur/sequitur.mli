(** Sequitur grammar inference (Nevill-Manning & Witten), the paper's
    reference point for traversable compression (§4): it also yields a
    representation walkable in both directions, but is "nearly not as
    effective as unidirectional predictors when compressing value
    streams". The ablation bench quantifies exactly that comparison
    against the bidirectional predictor streams.

    The algorithm maintains two invariants over a straight-line grammar:
    {e digram uniqueness} (no pair of adjacent symbols appears twice) and
    {e rule utility} (every rule is used at least twice). *)

type t

(** Infer a grammar for the sequence. *)
val build : int array -> t

(** Reconstruct the original sequence. *)
val expand : t -> int array

(** Number of rules, including the start rule. *)
val num_rules : t -> int

(** Total number of symbols on the right-hand sides of all rules. *)
val grammar_symbols : t -> int

(** Analytic compressed size: 32 bits per right-hand-side symbol plus 32
    per rule header. *)
val bits : t -> int

(** Invariant checks, exposed for property tests: every digram of
    adjacent symbols occurs at most once across all rules, and every rule
    other than the start rule is referenced at least twice. *)
val check_invariants : t -> (unit, string) result

(** Always-on inference telemetry. Invariants, checked in tests:
    [tl_rules = 1 + tl_rules_created - tl_rules_inlined] (the start rule
    plus surviving created rules) and [tl_input = Array.length input].
    [tl_digram_hits] counts appearances of an already-indexed digram
    (each triggers a rule reuse or creation); [tl_digram_misses] counts
    fresh digrams entering the index. *)
type telemetry = {
  tl_input : int;  (** terminals appended *)
  tl_rules : int;  (** live rules, start included *)
  tl_symbols : int;  (** symbols across all live right-hand sides *)
  tl_rules_created : int;  (** rules ever created (start excluded) *)
  tl_rules_inlined : int;  (** rules removed by the utility invariant *)
  tl_digram_hits : int;  (** repeated-digram detections *)
  tl_digram_misses : int;  (** first-seen digrams indexed *)
}

val telemetry : t -> telemetry

(** The non-start rules as [(expansion, static uses)] pairs: the terminal
    sequence each rule derives and how many times it is referenced in the
    grammar. The repeated substrings a grammar discovers — on an address
    trace these are Chilimbi-style {e hot data streams}. *)
val rule_stats : t -> (int array * int) list
