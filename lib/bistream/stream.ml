(* A stream is its compressed payload, picked once at build time and
   immutable afterwards. Packed bodies are *pristine templates*: their
   Bidir state is parked at the left end (w = 0) and is never stepped
   again, so marshalling a stream is byte-deterministic no matter what
   queries ran before.

   All traversal state — position, and for packed bodies a deep clone
   of the window/table state — lives in a [cur], together with the
   ledger row its steps are counted in. Cursors are single-owner; a
   session makes each one when a query first uses its stream. *)

type t = Braw of int array | Bpacked of Bidir.t

type view =
  | Vraw of {
      data : int array;  (* physically shared with the body *)
      mutable pos : int;
    }
  | Vpacked of Bidir.t  (* a deep clone of the pristine template *)

type cur = {
  c_body : t;
  c_tally : Telemetry.tally;
  c_row : Telemetry.row;
  c_view : view;
}

type telemetry = Bidir.telemetry = {
  tl_lookups : int;
  tl_hits : int;
  tl_misses : int;
}

let candidates =
  List.concat_map
    (fun meth -> List.map (fun ctx -> (meth, ctx)) [ 1; 2; 4 ])
    Bidir.all_meths

(* Streams shorter than this are kept raw outright; the trial prefix is
   capped at [trial_len] values. *)
let raw_cutoff = 16

let trial_len = 4096

let compress_with spec values =
  match spec with
  | `Raw -> Braw (Array.copy values)
  | `Bidir (meth, ctx) -> Bpacked (Bidir.compress meth ~ctx values)

module Obs = Wet_obs.Metrics

(* Selection work, bumped once per trial: entries the trials classified,
   and trials stopped once their running size showed they could not
   win. *)
let c_trial_values = Obs.counter "pack.trial_values"

let c_trials_cut = Obs.counter "pack.trials_cut"

(* The order the trials run in, each candidate with its rank in
   [candidates]: the table-free last-n family first, led by
   last-stride/2 (timestamp streams are mostly strided), then the FCM
   family from the cheapest hash up. A tight bound early stops the
   costly FCM trials sooner; the pick does not depend on this order. *)
let trial_order =
  let order =
    Bidir.
      [
        (Last_stride, 2); (Last_n, 1); (Last_stride, 1); (Last_n, 2);
        (Last_n, 4); (Last_stride, 4); (Dfcm, 1); (Fcm, 1); (Dfcm, 2);
        (Fcm, 2); (Dfcm, 4); (Fcm, 4);
      ]
  in
  assert (List.sort compare order = List.sort compare candidates);
  let ranks = List.mapi (fun rank c -> (c, rank)) candidates in
  List.map (fun c -> (List.assoc c ranks, c)) order

(* The pick is the smallest trial size, ties going to raw and then to
   the first in [candidates] order. Each trial is bounded by the leader
   so far: it can stop once it reaches the leader's size, or once it
   exceeds it when it ranks before the leader (it would win a tie), so
   every trial still decides exactly whether it beats the leader. Only
   the winner is built. *)
let compress values =
  let m = Array.length values in
  if m < raw_cutoff then compress_with `Raw values
  else begin
    let prefix =
      if m <= trial_len then values else Array.sub values 0 trial_len
    in
    (* (spec, size, rank) of the leader; raw ranks before every candidate *)
    let best = ref (`Raw, 32 * Array.length prefix, -1) in
    List.iter
      (fun (rank, (meth, ctx)) ->
        let _, bits, lead = !best in
        let limit = if rank < lead then bits + 1 else bits in
        let r = Bidir.trial ~limit meth ~ctx prefix in
        if Obs.enabled () then begin
          Obs.add c_trial_values r.Bidir.trial_entries;
          if r.Bidir.trial_bits >= limit then Obs.incr c_trials_cut
        end;
        if r.Bidir.trial_bits < limit then
          best := (`Bidir (meth, ctx), r.Bidir.trial_bits, rank))
      trial_order;
    let spec, _, _ = !best in
    compress_with spec values
  end

let length = function
  | Braw data -> Array.length data
  | Bpacked b -> Bidir.length b

let bits = function
  | Braw data -> 32 * Array.length data
  | Bpacked b -> Bidir.compressed_bits b

let method_name = function
  | Braw _ -> "raw"
  | Bpacked b ->
    Printf.sprintf "%s/%d" (Bidir.meth_name (Bidir.meth b)) (Bidir.ctx b)

(* Pure decode of the body: a packed template is read in place, never
   written, so the pristine state (and every live cursor) is untouched.
   Reading the container's contents is not a query, so no ledger sees
   it. *)
let contents = function
  | Braw data -> Array.copy data
  | Bpacked b -> Bidir.to_array b

(* ------------------------------------------------------------------ *)
(* Cursors                                                            *)
(* ------------------------------------------------------------------ *)

module Cursor = struct
  type stream = t

  type t = cur

  let make ~tally ~label (s : stream) =
    {
      c_body = s;
      c_tally = tally;
      c_row = Telemetry.row ~label;
      c_view =
        (match s with
         | Braw data -> Vraw { data; pos = 0 }
         | Bpacked b -> Vpacked (Bidir.clone b));
    }

  let length c = length c.c_body

  let pos c = match c.c_view with Vraw r -> r.pos | Vpacked b -> Bidir.cursor b

  (* The only places a packed step is counted: one each way. A forward
     step past the right end raises in [Bidir.step_forward] before it
     is counted. *)
  let packed_forward c b =
    let payload_bits = Bidir.payload_ahead b in
    let x = Bidir.step_forward b in
    Telemetry.packed_step c.c_tally c.c_row ~fwd:true ~payload_bits;
    x

  let packed_backward c b =
    Telemetry.packed_step c.c_tally c.c_row ~fwd:false
      ~payload_bits:(Bidir.payload_behind b);
    Bidir.step_backward b

  let right_end op = invalid_arg ("Stream." ^ op ^ ": at right end")

  let left_end op = invalid_arg ("Stream." ^ op ^ ": at left end")

  let step_forward c =
    match c.c_view with
    | Vraw r ->
      if r.pos >= Array.length r.data then right_end "step_forward";
      let x = r.data.(r.pos) in
      r.pos <- r.pos + 1;
      Telemetry.raw_step c.c_tally c.c_row ~fwd:true;
      x
    | Vpacked b -> packed_forward c b

  let step_backward c =
    match c.c_view with
    | Vraw r ->
      if r.pos <= 0 then left_end "step_backward";
      r.pos <- r.pos - 1;
      Telemetry.raw_step c.c_tally c.c_row ~fwd:false;
      r.data.(r.pos)
    | Vpacked b ->
      if Bidir.cursor b <= 0 then left_end "step_backward";
      packed_backward c b

  (* Peeks read in place. *)
  let peek_forward c =
    match c.c_view with
    | Vraw r ->
      if r.pos >= Array.length r.data then right_end "peek_forward";
      r.data.(r.pos)
    | Vpacked b -> Bidir.peek_forward b

  let peek_backward c =
    match c.c_view with
    | Vraw r ->
      if r.pos <= 0 then left_end "peek_backward";
      r.data.(r.pos - 1)
    | Vpacked b -> Bidir.peek_backward b

  (* What one decode step costs, in words a rewind copies. Measured over
     every candidate on 300-, 4,000- and 60,000-value streams (2-vCPU
     Xeon guest): a step takes 27-810 ns, cheapest for last-n and
     last-stride and dearest for fcm/16, and a word copies in
     0.4-2.3 ns, so a step costs 30-1,200 words. Taking the cheapest
     predictors' figure keeps the rewind to where it surely pays. *)
  let step_words = 32

  (* Move a packed cursor to [k], returning the steps taken. Going left,
     either step back [w - k] entries or rewind from the template and
     step forward [k]; the rewind is taken when its copy costs less than
     the steps it saves. *)
  let seek_packed c b k =
    let w = Bidir.cursor b in
    if k = w then 0
    else begin
      let w =
        match c.c_body with
        | Bpacked template
          when k < w && Bidir.rewind_words b < step_words * (w - k - k) ->
          Bidir.rewind ~template b;
          0
        | _ -> w
      in
      for _ = w to k - 1 do
        ignore (packed_forward c b)
      done;
      for _ = k to w - 1 do
        ignore (packed_backward c b)
      done;
      abs (k - w)
    end

  (* A raw cursor indexes its array: no step. *)
  let seek_steps c k =
    if k < 0 || k > length c then invalid_arg "Stream.seek";
    let d =
      match c.c_view with
      | Vraw r ->
        r.pos <- k;
        0
      | Vpacked b -> seek_packed c b k
    in
    Telemetry.seek c.c_tally c.c_row ~steps:d;
    d

  let seek c k = ignore (seek_steps c k)

  (* A seek to [k], then the step that reveals the value there. *)
  let read_at c k =
    match c.c_view with
    | Vraw r ->
      if k < 0 || k >= Array.length r.data then invalid_arg "Stream.read_at";
      r.pos <- k + 1;
      Telemetry.raw_read c.c_tally c.c_row;
      r.data.(k)
    | Vpacked b ->
      if k < 0 || k >= Bidir.length b then invalid_arg "Stream.read_at";
      Telemetry.seek c.c_tally c.c_row ~steps:(seek_packed c b k);
      packed_forward c b

  let to_array c =
    seek c 0;
    Array.init (length c) (fun _ -> step_forward c)

  (* One seek: a raw cursor binary-searches, taking no step; a packed
     one walks from where it stands until the value right of it is
     [>= v]. *)
  let lower_bound c v =
    match c.c_view with
    | Vraw r ->
      let lo = ref 0 and hi = ref (Array.length r.data) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if r.data.(mid) < v then lo := mid + 1 else hi := mid
      done;
      r.pos <- !lo;
      Telemetry.seek c.c_tally c.c_row ~steps:0;
      !lo
    | Vpacked b ->
      let p0 = Bidir.cursor b and m = Bidir.length b in
      while Bidir.cursor b > 0 && Bidir.peek_backward b >= v do
        ignore (packed_backward c b)
      done;
      while Bidir.cursor b < m && Bidir.peek_forward b < v do
        ignore (packed_forward c b)
      done;
      Telemetry.seek c.c_tally c.c_row ~steps:(abs (Bidir.cursor b - p0));
      Bidir.cursor b

  let find_ascending c v =
    let k = lower_bound c v in
    if k < length c && peek_forward c = v then Some k else None

  let same_state a b =
    match (a.c_view, b.c_view) with
    | Vpacked x, Vpacked y -> Bidir.same_state x y
    | Vraw r, Vraw q -> r.data == q.data && r.pos = q.pos
    | _ -> false
end

(* Dictionary figures are representation, not history: they come from
   the body and are identical in every cursor. *)
let telemetry = function
  | Braw _ ->
    (* Raw streams do no prediction: every value is stored verbatim and
       there is no dictionary to hit. *)
    { tl_lookups = 0; tl_hits = 0; tl_misses = 0 }
  | Bpacked b -> Bidir.telemetry b
