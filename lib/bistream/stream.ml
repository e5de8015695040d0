(* A stream is its compressed payload, picked once at build time and
   immutable afterwards. Packed bodies are *pristine templates*: their
   Bidir state is parked at the left end (w = 0) with zeroed traversal
   counters and is never stepped again, so marshalling a stream is
   byte-deterministic no matter what queries ran before.

   All traversal state — position, last direction, and for packed
   bodies a deep clone of the window/table state — lives in a [cur].
   Cursors are single-owner and cheap to mint: [Cursor.make] is O(1),
   the clone happens on first touch. *)

type t = Braw of int array | Bpacked of Bidir.t

type view =
  | Vraw of {
      data : int array;  (* physically shared with the body *)
      mutable pos : int;
      (* The last step's direction, for the tally's switch count: 0
         none, 1 forward, 2 backward. Only steps count — seeks and
         random reads are O(1) on a raw array, not traversal work. *)
      mutable rlast : int;
    }
  | Vpacked of Bidir.t  (* a deep clone of the pristine template *)

type cur = { c_body : t; mutable c_view : view option }

type telemetry = { tl_lookups : int; tl_hits : int; tl_misses : int }

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

(* Pure decode of the body: packed templates are cloned first, so the
   pristine state (and every live cursor) is untouched, and the decode
   walk accounts to a scratch tally — reading the container's contents
   is representation work, not query traversal. *)
let contents = function
  | Braw data -> Array.copy data
  | Bpacked b ->
    Bidir.to_array ~tally:(Telemetry.make ()) (Bidir.clone b)

(* ------------------------------------------------------------------ *)
(* Cursors                                                            *)
(* ------------------------------------------------------------------ *)

module Cursor = struct
  type stream = t

  type t = cur

  let make (s : stream) = { c_body = s; c_view = None }

  let view c =
    match c.c_view with
    | Some v -> v
    | None ->
      let v =
        match c.c_body with
        | Braw data ->
          Vraw { data; pos = 0; rlast = 0 }
        | Bpacked b -> Vpacked (Bidir.clone b)
      in
      c.c_view <- Some v;
      v

  let length c = length c.c_body

  let pos c =
    match c.c_view with
    | None -> 0
    | Some (Vraw r) -> r.pos
    | Some (Vpacked b) -> Bidir.cursor b

  let step_forward ?(tally = Telemetry.default) c =
    match view c with
    | Vraw r ->
      if r.pos >= Array.length r.data then
        invalid_arg "Stream.step_forward: at right end";
      let x = r.data.(r.pos) in
      r.pos <- r.pos + 1;
      let switched = r.rlast = 2 in
      r.rlast <- 1;
      Telemetry.note_raw ~tally ~fwd:true ~switched ();
      x
    | Vpacked b -> Bidir.step_forward ~tally b

  let step_backward ?(tally = Telemetry.default) c =
    match view c with
    | Vraw r ->
      if r.pos <= 0 then invalid_arg "Stream.step_backward: at left end";
      r.pos <- r.pos - 1;
      let switched = r.rlast = 1 in
      r.rlast <- 2;
      Telemetry.note_raw ~tally ~fwd:false ~switched ();
      r.data.(r.pos)
    | Vpacked b -> Bidir.step_backward ~tally b

  let peek_forward c =
    match view c with
    | Vraw r ->
      if r.pos >= Array.length r.data then
        invalid_arg "Stream.peek_forward: at right end";
      r.data.(r.pos)
    | Vpacked b -> Bidir.peek_forward b

  let peek_backward c =
    match view c with
    | Vraw r ->
      if r.pos <= 0 then invalid_arg "Stream.peek_backward: at left end";
      r.data.(r.pos - 1)
    | Vpacked b -> Bidir.peek_backward b

  (* What one decode step costs, in words a rewind copies. Measured over
     every candidate on 300-, 4,000- and 60,000-value streams (2-vCPU
     Xeon guest): a step takes 27-810 ns, cheapest for last-n and
     last-stride and dearest for fcm/16, and a word copies in
     0.4-2.3 ns, so a step costs 30-1,200 words. Taking the cheapest
     predictors' figure keeps the rewind to where it surely pays. *)
  let step_words = 32

  (* Move a packed cursor to [k], returning the entries decoded. Going
     left, either step back [w - k] entries or rewind from the template
     and step forward [k]; the rewind is taken when its copy costs less
     than the steps it saves. *)
  let seek_packed ~tally c b k =
    let w = Bidir.cursor b in
    (match c.c_body with
     | Bpacked template
       when k >= 0 && k < w
            && Bidir.rewind_words b < step_words * (w - k - k) ->
       Bidir.rewind ~template b
     | _ -> ());
    let d = abs (k - Bidir.cursor b) in
    if d > 0 then Bidir.seek ~tally b k;
    d

  let seek_steps ?(tally = Telemetry.default) c k =
    match view c with
    | Vraw r ->
      if k < 0 || k > Array.length r.data then invalid_arg "Stream.seek";
      r.pos <- k;
      0
    | Vpacked b -> seek_packed ~tally c b k

  let seek ?tally c k = ignore (seek_steps ?tally c k)

  let read_at ?(tally = Telemetry.default) c k =
    match view c with
    | Vraw r ->
      if k < 0 || k >= Array.length r.data then invalid_arg "Stream.read_at";
      r.pos <- k + 1;
      r.data.(k)
    | Vpacked b ->
      if k < 0 || k >= Bidir.length b then invalid_arg "Bidir.read_at";
      ignore (seek_packed ~tally c b k);
      Bidir.step_forward ~tally b

  let to_array ?(tally = Telemetry.default) c =
    match view c with
    | Vraw r ->
      r.pos <- Array.length r.data;
      Array.copy r.data
    | Vpacked b ->
      ignore (seek_packed ~tally c b 0);
      Bidir.to_array ~tally b

  let lower_bound ?(tally = Telemetry.default) c v =
    match view c with
    | Vraw r ->
      let lo = ref 0 and hi = ref (Array.length r.data) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if r.data.(mid) < v then lo := mid + 1 else hi := mid
      done;
      r.pos <- !lo;
      !lo
    | Vpacked b ->
      let m = Bidir.length b in
      while Bidir.cursor b > 0 && Bidir.peek_backward b >= v do
        ignore (Bidir.step_backward ~tally b)
      done;
      while Bidir.cursor b < m && Bidir.peek_forward b < v do
        ignore (Bidir.step_forward ~tally b)
      done;
      Bidir.cursor b

  let find_ascending ?(tally = Telemetry.default) c v =
    match view c with
    | Vraw r ->
      let lo = ref 0 and hi = ref (Array.length r.data - 1) in
      let found = ref None in
      while !found = None && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let x = r.data.(mid) in
        if x = v then found := Some mid
        else if x < v then lo := mid + 1
        else hi := mid - 1
      done;
      !found
    | Vpacked b ->
      let m = Bidir.length b in
      if m = 0 then None
      else begin
        (* Walk until the value just right of the cursor is >= v. *)
        while Bidir.cursor b > 0 && Bidir.peek_backward b >= v do
          ignore (Bidir.step_backward ~tally b)
        done;
        while Bidir.cursor b < m && Bidir.peek_forward b < v do
          ignore (Bidir.step_forward ~tally b)
        done;
        if Bidir.cursor b < m && Bidir.peek_forward b = v then
          Some (Bidir.cursor b)
        else None
      end

  (* An untouched cursor stands at 0 in its template's state. *)
  let same_state a b =
    let state c =
      match (c.c_view, c.c_body) with
      | Some (Vpacked x), _ | None, Bpacked x -> `Packed x
      | Some (Vraw r), _ -> `Raw (r.data, r.pos)
      | None, Braw data -> `Raw (data, 0)
    in
    match (state a, state b) with
    | `Packed x, `Packed y -> Bidir.same_state x y
    | `Raw (d, p), `Raw (e, q) -> d == e && p = q
    | _ -> false
end

(* Dictionary figures are representation, not history: they come from
   the body and are identical in every cursor. *)
let telemetry = function
  | Braw _ ->
    (* Raw streams do no prediction: every value is stored verbatim and
       there is no dictionary to hit. *)
    { tl_lookups = 0; tl_hits = 0; tl_misses = 0 }
  | Bpacked b ->
    let tl = Bidir.telemetry b in
    {
      tl_lookups = tl.Bidir.tl_lookups;
      tl_hits = tl.Bidir.tl_hits;
      tl_misses = tl.Bidir.tl_misses;
    }
