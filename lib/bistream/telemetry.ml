(* Decode counters, bumped by the same internal steps that feed the
   step counters in Bidir. A [tally] is a bundle of monotone
   mutable counters — never marshalled, never reset — so a
   [before]/[after] snapshot pair brackets exactly the decode work
   performed against that tally in between, no matter which streams it
   landed on. Peeks read without stepping and a rewind copies from the
   template without decoding, so neither reaches a tally; nor does
   [Bidir.compress], which builds a stream without stepping.

   [default] is the process tally that cursor steps taken outside any
   session (no [?tally] given) count against. Sessions each carry their
   own tally so their decode work attributes to the right qprof window
   without any cross-domain races. *)

type snapshot = {
  g_fwd : int;  (* forward cursor steps *)
  g_bwd : int;  (* backward cursor steps *)
  g_switches : int;  (* per-stream traversal direction reversals *)
  g_hits : int;  (* dictionary hits decoded (packed streams only) *)
  g_misses : int;  (* verbatim entries decoded (packed streams only) *)
  g_bits : int;  (* stored bits touched: flag + payload, 32/raw value *)
}

let zero =
  { g_fwd = 0; g_bwd = 0; g_switches = 0; g_hits = 0; g_misses = 0; g_bits = 0 }

type tally = {
  mutable a_fwd : int;
  mutable a_bwd : int;
  mutable a_switches : int;
  mutable a_hits : int;
  mutable a_misses : int;
  mutable a_bits : int;
}

let make () =
  { a_fwd = 0; a_bwd = 0; a_switches = 0; a_hits = 0; a_misses = 0; a_bits = 0 }

let default = make ()

let snapshot ?(tally = default) () =
  {
    g_fwd = tally.a_fwd;
    g_bwd = tally.a_bwd;
    g_switches = tally.a_switches;
    g_hits = tally.a_hits;
    g_misses = tally.a_misses;
    g_bits = tally.a_bits;
  }

let restore ?(tally = default) s =
  tally.a_fwd <- s.g_fwd;
  tally.a_bwd <- s.g_bwd;
  tally.a_switches <- s.g_switches;
  tally.a_hits <- s.g_hits;
  tally.a_misses <- s.g_misses;
  tally.a_bits <- s.g_bits

let delta ~before ~after =
  {
    g_fwd = after.g_fwd - before.g_fwd;
    g_bwd = after.g_bwd - before.g_bwd;
    g_switches = after.g_switches - before.g_switches;
    g_hits = after.g_hits - before.g_hits;
    g_misses = after.g_misses - before.g_misses;
    g_bits = after.g_bits - before.g_bits;
  }

let add a b =
  {
    g_fwd = a.g_fwd + b.g_fwd;
    g_bwd = a.g_bwd + b.g_bwd;
    g_switches = a.g_switches + b.g_switches;
    g_hits = a.g_hits + b.g_hits;
    g_misses = a.g_misses + b.g_misses;
    g_bits = a.g_bits + b.g_bits;
  }

let steps s = s.g_fwd + s.g_bwd

let nonneg s =
  s.g_fwd >= 0 && s.g_bwd >= 0 && s.g_switches >= 0 && s.g_hits >= 0
  && s.g_misses >= 0 && s.g_bits >= 0

(* One packed-stream step: the revealed entry's flag bit plus its
   payload. Hit/miss classification comes from the persisted hit bitvec
   of the entry being decoded. *)
let note_packed ?(tally = default) ~fwd ~switched ~hit ~payload_bits () =
  (if fwd then tally.a_fwd <- tally.a_fwd + 1
   else tally.a_bwd <- tally.a_bwd + 1);
  if switched then tally.a_switches <- tally.a_switches + 1;
  (if hit then tally.a_hits <- tally.a_hits + 1
   else tally.a_misses <- tally.a_misses + 1);
  tally.a_bits <- tally.a_bits + 1 + payload_bits

(* One raw-stream step: a verbatim 32-bit value, no predictor. *)
let note_raw ?(tally = default) ~fwd ~switched () =
  (if fwd then tally.a_fwd <- tally.a_fwd + 1
   else tally.a_bwd <- tally.a_bwd + 1);
  if switched then tally.a_switches <- tally.a_switches + 1;
  tally.a_bits <- tally.a_bits + 32
