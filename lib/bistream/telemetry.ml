(* The cost ledger. A tally holds a reader's totals, kept as one more
   row; each cursor that has moved against it holds a row of its own. A
   step is counted once, into both, by the cursor call that takes it,
   so no observer keeps a copy.

   Windows. A tally holds at most one open window. Opening one starts
   a new generation; the first time a row is touched in that generation,
   the tally logs the row together with a copy of its counts just before
   that touch. The log is the window's: one entry per row touched since
   it opened, each holding that row's counts when the window opened,
   and it is dropped when the window closes. *)

type snapshot = {
  g_fwd : int;
  g_bwd : int;
  g_switches : int;
  g_hits : int;
  g_misses : int;
  g_bits : int;
  g_seeks : int;
  g_seek_steps : int;
}

type row = {
  r_label : int;
  mutable r_fwd : int;
  mutable r_bwd : int;
  mutable r_switches : int;
  mutable r_hits : int;
  mutable r_misses : int;
  mutable r_bits : int;
  mutable r_seeks : int;
  mutable r_seek_steps : int;
  mutable r_last : int;
  mutable r_gen : int;
}

type tally = {
  a_total : row;
  mutable a_gen : int;
  mutable a_open : bool;  (* a window is open *)
  mutable a_log : (row * row) list;  (* (row, counts before), newest first *)
}

let row ~label =
  {
    r_label = label;
    r_fwd = 0; r_bwd = 0; r_switches = 0; r_hits = 0; r_misses = 0;
    r_bits = 0; r_seeks = 0; r_seek_steps = 0;
    r_last = 0; r_gen = -1;
  }

let make () = { a_total = row ~label:0; a_gen = 0; a_open = false; a_log = [] }

let snapshot ~tally () =
  let t = tally.a_total in
  {
    g_fwd = t.r_fwd;
    g_bwd = t.r_bwd;
    g_switches = t.r_switches;
    g_hits = t.r_hits;
    g_misses = t.r_misses;
    g_bits = t.r_bits;
    g_seeks = t.r_seeks;
    g_seek_steps = t.r_seek_steps;
  }

let delta ~before ~after =
  {
    g_fwd = after.g_fwd - before.g_fwd;
    g_bwd = after.g_bwd - before.g_bwd;
    g_switches = after.g_switches - before.g_switches;
    g_hits = after.g_hits - before.g_hits;
    g_misses = after.g_misses - before.g_misses;
    g_bits = after.g_bits - before.g_bits;
    g_seeks = after.g_seeks - before.g_seeks;
    g_seek_steps = after.g_seek_steps - before.g_seek_steps;
  }

let steps s = s.g_fwd + s.g_bwd

(* A row's first touch in this generation: log it if the open window
   needs its counts from before. *)
let enter t r =
  if t.a_open then t.a_log <- (r, { r with r_label = r.r_label }) :: t.a_log;
  r.r_gen <- t.a_gen

(* Add one step to a row; the tally's total takes each step its rows
   take. [dict] is 0 for a raw step, 1 for a hit, 2 for a miss. The
   helpers are inlined: a step is a few field writes. *)
let[@inline] tick r ~fwd ~switched ~bits ~dict =
  if fwd then r.r_fwd <- r.r_fwd + 1 else r.r_bwd <- r.r_bwd + 1;
  if switched then r.r_switches <- r.r_switches + 1;
  r.r_bits <- r.r_bits + bits;
  if dict = 1 then r.r_hits <- r.r_hits + 1
  else if dict = 2 then r.r_misses <- r.r_misses + 1

let[@inline] step t r ~fwd ~bits ~dict =
  if r.r_gen <> t.a_gen then enter t r;
  let dir = if fwd then 1 else 2 in
  let switched = r.r_last <> 0 && r.r_last <> dir in
  r.r_last <- dir;
  tick r ~fwd ~switched ~bits ~dict;
  tick t.a_total ~fwd ~switched ~bits ~dict

let[@inline] tick_seek r ~steps =
  r.r_seeks <- r.r_seeks + 1;
  r.r_seek_steps <- r.r_seek_steps + steps

let[@inline] seek t r ~steps =
  if r.r_gen <> t.a_gen then enter t r;
  tick_seek r ~steps;
  tick_seek t.a_total ~steps

let raw_step t r ~fwd = step t r ~fwd ~bits:32 ~dict:0

let packed_step t r ~fwd ~payload_bits =
  step t r ~fwd ~bits:(1 + payload_bits)
    ~dict:(if payload_bits < 32 then 1 else 2)

let raw_read t r =
  seek t r ~steps:0;
  step t r ~fwd:true ~bits:32 ~dict:0

type window = { w_tally : tally; mutable w_open : bool }

let open_window t =
  if t.a_open then
    invalid_arg "Telemetry.open_window: the tally already has an open window";
  t.a_gen <- t.a_gen + 1;
  t.a_open <- true;
  { w_tally = t; w_open = true }

let window_rows w =
  if not w.w_open then invalid_arg "Telemetry.window_rows: window closed";
  List.rev_map
    (fun (r, b) ->
      {
        b with
        r_fwd = r.r_fwd - b.r_fwd;
        r_bwd = r.r_bwd - b.r_bwd;
        r_switches = r.r_switches - b.r_switches;
        r_hits = r.r_hits - b.r_hits;
        r_misses = r.r_misses - b.r_misses;
        r_bits = r.r_bits - b.r_bits;
        r_seeks = r.r_seeks - b.r_seeks;
        r_seek_steps = r.r_seek_steps - b.r_seek_steps;
      })
    w.w_tally.a_log

let close_window w =
  if w.w_open then begin
    w.w_open <- false;
    w.w_tally.a_open <- false;
    w.w_tally.a_log <- []
  end
