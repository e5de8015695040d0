module Hashing = Wet_util.Hashing
module Bitvec = Wet_util.Bitvec

type meth = Fcm | Dfcm | Last_n | Last_stride

let meth_name = function
  | Fcm -> "fcm"
  | Dfcm -> "dfcm"
  | Last_n -> "last-n"
  | Last_stride -> "last-stride"

let all_meths = [ Fcm; Dfcm; Last_n; Last_stride ]

type t = {
  meth : meth;
  ctx : int;
  m : int;  (* real stream length *)
  p : int array;  (* padded storage: raw value in window, payload elsewhere *)
  hit : Bitvec.t;
  frtb : int array;  (* FCM family only; [||] otherwise *)
  bltb : int array;
  table_bits : int;
  mutable w : int;  (* window start: FR = [0,w), window = [w,w+ctx), BL after *)
}

type telemetry = { tl_lookups : int; tl_hits : int; tl_misses : int }

(* A loop rather than a local recursive closure: [hit_bits] runs on
   every counted step, and must not allocate. *)
let ceil_log2 n =
  let k = ref 0 and v = ref 1 in
  while !v < n do
    incr k;
    v := 2 * !v
  done;
  !k

(* Payload bits of a hit entry (the flag bit is counted separately). *)
let hit_bits t =
  match t.meth with
  | Fcm | Dfcm -> 0
  | Last_n | Last_stride -> ceil_log2 t.ctx

(* The table slot keyed by the [ctx] values [a.(q ..)]: [a] is the
   padded storage, or the values {!to_array} has revealed. *)
let key_fcm t a q =
  Hashing.index_of_hash (Hashing.hash_window a q t.ctx) t.table_bits

let key_dfcm t a q =
  let acc = ref Hashing.fnv_init in
  for i = q to q + t.ctx - 2 do
    acc := Hashing.fnv_fold !acc (a.(i + 1) - a.(i))
  done;
  Hashing.index_of_hash !acc t.table_bits

(* The [pop_*]/[push_*] pairs below are exact inverses: a miss entry's
   payload is the table value it displaced, so popping restores the
   table to its pre-push state (paper Fig. 5). The Last-n family uses
   the window itself as its table (paper Fig. 7) and needs no undo. *)

(* Pop the BL entry at padded position [pos] (its flag and payload in
   [t]) against the left context [win.(pos-ctx .. pos-1)] and the BL
   table [tb], restoring [tb] on a miss. A step passes the window and
   the template's table; {!to_array} the values it has revealed and a
   private copy of the table. Returns the revealed value. *)
let pop_bl t ~win ~tb pos =
  let n = t.ctx in
  let hit = Bitvec.get t.hit pos in
  match t.meth with
  | Fcm ->
    let idx = key_fcm t win (pos - n) in
    let x = tb.(idx) in
    if not hit then tb.(idx) <- t.p.(pos);
    x
  | Dfcm ->
    let idx = key_dfcm t win (pos - n) in
    let s = tb.(idx) in
    let x = win.(pos - 1) + s in
    if not hit then tb.(idx) <- t.p.(pos);
    x
  | Last_n -> if hit then win.(pos - n + t.p.(pos)) else t.p.(pos)
  | Last_stride ->
    if hit then begin
      let k = t.p.(pos) in
      let s = if k = 0 then 0 else win.(pos - n + k) - win.(pos - n + k - 1) in
      win.(pos - 1) + s
    end
    else t.p.(pos)

(* Store an entry: its hit flag and its payload. *)
let set_entry t pos hit payload =
  Bitvec.set t.hit pos hit;
  t.p.(pos) <- payload

(* The pushes below search with loops rather than local closures, so a
   step allocates nothing. *)

(* Push value [x] (currently at window position [pos]) into BL; its left
   context is [pos-ctx .. pos-1]. Stores the entry payload at [pos]. *)
let push_bl t pos x =
  let n = t.ctx in
  match t.meth with
  | Fcm ->
    let idx = key_fcm t t.p (pos - n) in
    if t.bltb.(idx) = x then set_entry t pos true 0
    else begin
      set_entry t pos false t.bltb.(idx);
      t.bltb.(idx) <- x
    end
  | Dfcm ->
    let idx = key_dfcm t t.p (pos - n) in
    let s = x - t.p.(pos - 1) in
    if t.bltb.(idx) = s then set_entry t pos true 0
    else begin
      set_entry t pos false t.bltb.(idx);
      t.bltb.(idx) <- s
    end
  | Last_n ->
    let k = ref 0 in
    while !k < n && t.p.(pos - n + !k) <> x do
      incr k
    done;
    if !k >= n then set_entry t pos false x else set_entry t pos true !k
  | Last_stride ->
    let s = x - t.p.(pos - 1) in
    if s = 0 then set_entry t pos true 0
    else begin
      let k = ref 1 in
      while !k < n && t.p.(pos - n + !k) - t.p.(pos - n + !k - 1) <> s do
        incr k
      done;
      if !k >= n then set_entry t pos false x else set_entry t pos true !k
    end

(* Pop the FR entry at padded position [pos]; its right context is the
   window [pos+1 .. pos+ctx]. *)
let pop_fr t pos =
  let hit = Bitvec.get t.hit pos in
  match t.meth with
  | Fcm ->
    let idx = key_fcm t t.p (pos + 1) in
    let x = t.frtb.(idx) in
    if not hit then t.frtb.(idx) <- t.p.(pos);
    x
  | Dfcm ->
    let idx = key_dfcm t t.p (pos + 1) in
    let s = t.frtb.(idx) in
    let x = t.p.(pos + 1) + s in
    if not hit then t.frtb.(idx) <- t.p.(pos);
    x
  | Last_n -> if hit then t.p.(pos + 1 + t.p.(pos)) else t.p.(pos)
  | Last_stride ->
    if hit then begin
      let k = t.p.(pos) in
      let s = if k = 0 then 0 else t.p.(pos + k) - t.p.(pos + k + 1) in
      t.p.(pos + 1) + s
    end
    else t.p.(pos)

(* Push value [x] (currently at window position [pos]) into FR; its
   right context is [pos+1 .. pos+ctx]. *)
let push_fr t pos x =
  let n = t.ctx in
  match t.meth with
  | Fcm ->
    let idx = key_fcm t t.p (pos + 1) in
    if t.frtb.(idx) = x then set_entry t pos true 0
    else begin
      set_entry t pos false t.frtb.(idx);
      t.frtb.(idx) <- x
    end
  | Dfcm ->
    let idx = key_dfcm t t.p (pos + 1) in
    let s = x - t.p.(pos + 1) in
    if t.frtb.(idx) = s then set_entry t pos true 0
    else begin
      set_entry t pos false t.frtb.(idx);
      t.frtb.(idx) <- s
    end
  | Last_n ->
    let k = ref 0 in
    while !k < n && t.p.(pos + 1 + !k) <> x do
      incr k
    done;
    if !k >= n then set_entry t pos false x else set_entry t pos true !k
  | Last_stride ->
    let s = x - t.p.(pos + 1) in
    if s = 0 then set_entry t pos true 0
    else begin
      let k = ref 1 in
      while !k < n && t.p.(pos + !k) - t.p.(pos + !k + 1) <> s do
        incr k
      done;
      if !k >= n then set_entry t pos false x else set_entry t pos true !k
    end

let internal_step_forward t =
  let reveal = t.w + t.ctx in
  let x = pop_bl t ~win:t.p ~tb:t.bltb reveal in
  let leaving = t.p.(t.w) in
  t.p.(reveal) <- x;
  push_fr t t.w leaving;
  t.w <- t.w + 1;
  x

(* A backward step reveals the value at index [w-1], which is already the
   rightmost window slot: it leaves the window into BL while the FR entry
   at [w-1] is popped to refill the window from the left. *)
let internal_step_backward t =
  let refill = t.w - 1 in
  let x = pop_fr t refill in
  let leaving = t.p.(t.w + t.ctx - 1) in
  (* The refill value must be in place before [push_bl] reads the new
     window as the left context of the leaving value. *)
  t.p.(refill) <- x;
  push_bl t (t.w + t.ctx - 1) leaving;
  t.w <- t.w - 1;
  leaving

(* The padded storage of [values] (zero sentinels at both ends, window
   at the left end) with empty tables: where a built stream and a
   selection trial both start. *)
let make meth ~ctx values =
  if ctx < 1 || ctx > 16 then invalid_arg "Bidir.compress: ctx must be in [1,16]";
  let m = Array.length values in
  let p = Array.make (m + (2 * ctx)) 0 in
  Array.blit values 0 p ctx m;
  (* Tables are counted as part of the compressed size, so they are
     sized well below the stream itself; larger tables would raise hit
     rates slightly but cost more than they save on these streams. *)
  let table_bits =
    match meth with
    | Fcm | Dfcm -> min 12 (max 2 (ceil_log2 (max 2 m) - 5))
    | Last_n | Last_stride -> 0
  in
  let tb () =
    match meth with
    | Fcm | Dfcm -> Array.make (1 lsl table_bits) 0
    | Last_n | Last_stride -> [||]
  in
  {
    meth; ctx; m; p;
    hit = Bitvec.create (m + (2 * ctx));
    frtb = tb (); bltb = tb (); table_bits;
    w = 0;
  }

(* The state a cursor parked at the left end has, whatever route it took
   there (see [clone]): the window holds the [ctx] leading sentinels, the
   FR table is empty, and every BL entry was pushed right to left with
   its raw left context. One thing survives from FR: a pop leaves its
   slot's hit flag behind, and the window slots' flags are those of the
   first [ctx] FR pushes, which start from an empty table and read only
   raw right context. So those pushes are made, their payloads and table
   updates dropped, and the BL entries pushed from the right — one
   predictor update per value. *)
let compress meth ~ctx values =
  let t = make meth ~ctx values in
  for j = 0 to ctx - 1 do
    push_fr t j t.p.(j)
  done;
  Array.fill t.p 0 ctx 0;
  Array.fill t.frtb 0 (Array.length t.frtb) 0;
  for pos = t.m + (2 * ctx) - 1 downto ctx do
    push_bl t pos t.p.(pos)
  done;
  t

let length t = t.m

let cursor t = t.w

(* The table/window state is a pure function of the cursor position —
   each pop exactly undoes the corresponding push — so deep-copying the
   mutable arrays at any [w] yields a fully independent cursor over the
   same logical values. *)
let clone t =
  {
    t with
    p = Array.copy t.p;
    hit = Bitvec.copy t.hit;
    frtb = Array.copy t.frtb;
    bltb = Array.copy t.bltb;
  }

(* [Array.blit] passes every word through the write barrier when [dst]
   lives in the major heap, as a cursor's arrays soon do; an [int array]
   needs no barrier, and this loop copies about five times faster.
   [n] must not exceed either length. *)
let copy_ints src dst n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

(* Positions at or past [w + ctx] are BL entries, and every BL entry
   holds what the template's does (each pop exactly undoes its push), so
   the left end's state is the template's prefix [\[0, w + ctx)], its
   flags there and both its tables. Equal length, method and context
   give equal array lengths. *)
let rewind ~template t =
  if template.w <> 0 || template.m <> t.m || template.ctx <> t.ctx
     || template.meth <> t.meth
  then invalid_arg "Bidir.rewind: template does not match";
  let n = t.w + t.ctx in
  copy_ints template.p t.p n;
  Bitvec.blit_prefix ~src:template.hit ~dst:t.hit n;
  copy_ints template.frtb t.frtb (Array.length t.frtb);
  copy_ints template.bltb t.bltb (Array.length t.bltb);
  t.w <- 0

let rewind_words t =
  t.w + t.ctx + ((t.w + t.ctx) / 64) + Array.length t.frtb
  + Array.length t.bltb

(* A window slot's flag is whatever the last pop or rewind left there
   (a BL flag after a forward step, an FR one after a backward step, the
   template's after a rewind); no step reads it before a push rewrites
   it, so it is not state. *)
let same_state a b =
  let len = a.m + (2 * a.ctx) in
  let rec flags pos =
    pos >= len
    || ((pos >= a.w && pos < a.w + a.ctx)
        || Bitvec.get a.hit pos = Bitvec.get b.hit pos)
       && flags (pos + 1)
  in
  a.meth = b.meth && a.ctx = b.ctx && a.m = b.m && a.w = b.w && a.p = b.p
  && a.frtb = b.frtb && a.bltb = b.bltb && flags 0

let step_forward t =
  if t.w >= t.m then invalid_arg "Bidir.step_forward: at right end";
  internal_step_forward t

let step_backward t =
  if t.w <= 0 then invalid_arg "Bidir.step_backward: at left end";
  internal_step_backward t

(* The payload bits of the entry a forward step decodes, and of the one
   a backward step decodes: the positions [pop_bl] and [pop_fr] read. *)
let payload_ahead t = if Bitvec.get t.hit (t.w + t.ctx) then hit_bits t else 32

let payload_behind t = if Bitvec.get t.hit (t.w - 1) then hit_bits t else 32

(* Peeks are pure reads. The value a forward step would reveal is the
   one [pop_bl] computes from the BL entry, the window and the BL table
   (a miss entry's value sits in the table slot its payload would
   restore); the value a backward step reveals is already raw in the
   window's last slot. *)
let peek_forward t =
  if t.w >= t.m then invalid_arg "Bidir.peek_forward: at right end";
  let pos = t.w + t.ctx in
  let n = t.ctx in
  match t.meth with
  | Fcm -> t.bltb.(key_fcm t t.p (pos - n))
  | Dfcm -> t.p.(pos - 1) + t.bltb.(key_dfcm t t.p (pos - n))
  | Last_n ->
    if Bitvec.get t.hit pos then t.p.(pos - n + t.p.(pos)) else t.p.(pos)
  | Last_stride ->
    if Bitvec.get t.hit pos then begin
      let k = t.p.(pos) in
      let s = if k = 0 then 0 else t.p.(pos - n + k) - t.p.(pos - n + k - 1) in
      t.p.(pos - 1) + s
    end
    else t.p.(pos)

let peek_backward t =
  if t.w <= 0 then invalid_arg "Bidir.peek_backward: at left end";
  t.p.(t.w + t.ctx - 1)

let seek t k =
  if k < 0 || k > t.m then invalid_arg "Bidir.seek";
  while t.w < k do
    ignore (internal_step_forward t)
  done;
  while t.w > k do
    ignore (internal_step_backward t)
  done

let read_at t k =
  if k < 0 || k >= t.m then invalid_arg "Bidir.read_at";
  seek t k;
  step_forward t

(* Bits that do not depend on the entries: the raw window and, for the
   FCM family, both lookup tables. *)
let fixed_bits t =
  (t.ctx * 32)
  + (match t.meth with
     | Fcm | Dfcm -> 2 * (1 lsl t.table_bits) * 32
     | Last_n | Last_stride -> 0)

(* Bits of the entry at [pos]: its flag, plus [hb] (= [hit_bits t]) on
   a hit or the 32-bit value on a miss. *)
let entry_bits t ~hb pos = 1 + if Bitvec.get t.hit pos then hb else 32

let compressed_bits t =
  let hb = hit_bits t in
  let total = ref (fixed_bits t) in
  for pos = 0 to t.w - 1 do
    total := !total + entry_bits t ~hb pos
  done;
  for pos = t.w + t.ctx to t.m + (2 * t.ctx) - 1 do
    total := !total + entry_bits t ~hb pos
  done;
  !total

type trial = { trial_bits : int; trial_entries : int }

(* [compress]'s BL pass, keeping only the running size: each pushed
   entry adds at least one bit, so once the sum reaches [limit] the
   finished stream cannot come in under it. *)
let trial ?(limit = max_int) meth ~ctx values =
  let t = make meth ~ctx values in
  let hb = hit_bits t in
  let total = ref (fixed_bits t) in
  let pos = ref (t.m + (2 * ctx) - 1) in
  while !pos >= ctx && !total < limit do
    push_bl t !pos t.p.(!pos);
    total := !total + entry_bits t ~hb !pos;
    decr pos
  done;
  { trial_bits = !total; trial_entries = t.m + (2 * ctx) - 1 - !pos }

(* A template parked at the left end reads left to right without a
   step: each BL entry pops, as a forward step pops it, against the
   values revealed before it (the zero sentinels first) and a private
   copy of the BL table. No FR entry is pushed, and the template is
   only read. *)
let to_array t =
  if t.w <> 0 then invalid_arg "Bidir.to_array: cursor not at the left end";
  let n = t.ctx in
  (* [n] sentinels, then the values *)
  let v = Array.make (t.m + n) 0 in
  let tb = Array.copy t.bltb in
  for pos = n to t.m + n - 1 do
    v.(pos) <- pop_bl t ~win:v ~tb pos
  done;
  Array.sub v n t.m

let meth t = t.meth

let ctx t = t.ctx

(* Dictionary telemetry is derived from the persistent hit bitvec rather
   than counted in the hot push path: every padded value outside the
   window carries exactly one classified entry, so lookups = m + ctx and
   the flag says whether the predictor hit. Cursor-position independent,
   and free when nobody asks. *)
let telemetry t =
  let hits = ref 0 in
  for pos = 0 to t.w - 1 do
    if Bitvec.get t.hit pos then incr hits
  done;
  for pos = t.w + t.ctx to t.m + (2 * t.ctx) - 1 do
    if Bitvec.get t.hit pos then incr hits
  done;
  let lookups = t.m + t.ctx in
  { tl_lookups = lookups; tl_hits = !hits; tl_misses = lookups - !hits }
