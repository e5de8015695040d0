type t = { bits : Bytes.t; n : int }

let create n =
  if n < 0 then invalid_arg "Bitvec.create";
  { bits = Bytes.make ((n + 7) / 8) '\000'; n }

let length v = v.n

let copy v = { bits = Bytes.copy v.bits; n = v.n }

let blit_prefix ~src ~dst n =
  if n < 0 || n > src.n || n > dst.n then invalid_arg "Bitvec.blit_prefix";
  let full = n lsr 3 and rest = n land 7 in
  Bytes.blit src.bits 0 dst.bits 0 full;
  if rest > 0 then begin
    let mask = (1 lsl rest) - 1 in
    let s = Char.code (Bytes.unsafe_get src.bits full)
    and d = Char.code (Bytes.unsafe_get dst.bits full) in
    Bytes.unsafe_set dst.bits full
      (Char.unsafe_chr (s land mask lor (d land lnot mask)))
  end

let check v i =
  if i < 0 || i >= v.n then invalid_arg "Bitvec: index out of bounds"

let get v i =
  check v i;
  Char.code (Bytes.unsafe_get v.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set v i b =
  check v i;
  let byte = Char.code (Bytes.unsafe_get v.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if b then byte lor mask else byte land lnot mask in
  Bytes.unsafe_set v.bits (i lsr 3) (Char.chr byte)

let popcount v =
  let count = ref 0 in
  for i = 0 to Bytes.length v.bits - 1 do
    let b = ref (Char.code (Bytes.unsafe_get v.bits i)) in
    while !b <> 0 do
      count := !count + (!b land 1);
      b := !b lsr 1
    done
  done;
  !count
