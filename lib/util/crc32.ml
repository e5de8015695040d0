(* CRC-32 (IEEE), reflected form, poly 0xEDB88320, eight bytes a step
   (slicing-by-8). Table [k] (entries [256k .. 256k+255]) holds the CRC
   of a byte followed by [k] zero bytes, so the eight bytes of a step
   are looked up independently and their contributions XORed. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- t.(prev land 0xff) lxor (prev lsr 8)
  done;
  t

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub";
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop = pos + len in
  (* The bounds were checked above, and every table index is below
     [8 * 256]. *)
  while !i + 8 <= stop do
    let k = !i and x = !c in
    let b0 = Char.code (String.unsafe_get s k)
    and b1 = Char.code (String.unsafe_get s (k + 1))
    and b2 = Char.code (String.unsafe_get s (k + 2))
    and b3 = Char.code (String.unsafe_get s (k + 3))
    and b4 = Char.code (String.unsafe_get s (k + 4))
    and b5 = Char.code (String.unsafe_get s (k + 5))
    and b6 = Char.code (String.unsafe_get s (k + 6))
    and b7 = Char.code (String.unsafe_get s (k + 7)) in
    c :=
      Array.unsafe_get tables (1792 + ((x lxor b0) land 0xff))
      lxor Array.unsafe_get tables (1536 + (((x lsr 8) lxor b1) land 0xff))
      lxor Array.unsafe_get tables (1280 + (((x lsr 16) lxor b2) land 0xff))
      lxor Array.unsafe_get tables (1024 + ((x lsr 24) lxor b3))
      lxor Array.unsafe_get tables (768 + b4)
      lxor Array.unsafe_get tables (512 + b5)
      lxor Array.unsafe_get tables (256 + b6)
      lxor Array.unsafe_get tables b7;
    i := k + 8
  done;
  while !i < stop do
    c :=
      Array.unsafe_get tables
        ((!c lxor Char.code (String.unsafe_get s !i)) land 0xff)
      lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let string s = sub s ~pos:0 ~len:(String.length s)
