module Dyn = Wet_util.Dynarray_int
module Bitvec = Wet_util.Bitvec
module Hashing = Wet_util.Hashing
module Crc32 = Wet_util.Crc32
module Prng = Wet_util.Prng

let test_dyn_basic () =
  let a = Dyn.create () in
  Alcotest.(check int) "empty" 0 (Dyn.length a);
  for i = 0 to 99 do
    Dyn.push a (i * i)
  done;
  Alcotest.(check int) "length" 100 (Dyn.length a);
  Alcotest.(check int) "get" 49 (Dyn.get a 7);
  Dyn.set a 7 (-1);
  Alcotest.(check int) "set" (-1) (Dyn.get a 7);
  Alcotest.(check int) "last" (99 * 99) (Dyn.last a);
  Alcotest.(check int) "pop" (99 * 99) (Dyn.pop a);
  Alcotest.(check int) "after pop" 99 (Dyn.length a)

let test_dyn_bounds () =
  let a = Dyn.of_array [| 1; 2; 3 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Dynarray_int: index 3 out of [0,3)")
    (fun () -> ignore (Dyn.get a 3));
  Alcotest.check_raises "neg" (Invalid_argument "Dynarray_int: index -1 out of [0,3)")
    (fun () -> ignore (Dyn.get a (-1)));
  let e = Dyn.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Dynarray_int.pop: empty")
    (fun () -> ignore (Dyn.pop e))

let test_dyn_round_trip () =
  let src = Array.init 1000 (fun i -> (i * 37) mod 101) in
  let a = Dyn.of_array src in
  Alcotest.(check (array int)) "to_array" src (Dyn.to_array a);
  Alcotest.(check (array int)) "sub" (Array.sub src 10 50) (Dyn.sub a 10 50);
  let sum = Dyn.fold ( + ) 0 a in
  Alcotest.(check int) "fold" (Array.fold_left ( + ) 0 src) sum

let prop_dyn_model =
  QCheck.Test.make ~name:"dynarray models a list"
    QCheck.(list small_int)
    (fun xs ->
      let a = Dyn.create () in
      List.iter (Dyn.push a) xs;
      Array.to_list (Dyn.to_array a) = xs)

let test_bitvec () =
  let v = Bitvec.create 77 in
  Alcotest.(check int) "len" 77 (Bitvec.length v);
  Alcotest.(check int) "popcount0" 0 (Bitvec.popcount v);
  Bitvec.set v 0 true;
  Bitvec.set v 76 true;
  Bitvec.set v 33 true;
  Alcotest.(check bool) "get" true (Bitvec.get v 33);
  Alcotest.(check bool) "unset" false (Bitvec.get v 34);
  Alcotest.(check int) "popcount" 3 (Bitvec.popcount v);
  Bitvec.set v 33 false;
  Alcotest.(check int) "clear" 2 (Bitvec.popcount v);
  Alcotest.check_raises "oob" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bitvec.get v 77))

let prop_bitvec_model =
  QCheck.Test.make ~name:"bitvec models a bool array"
    QCheck.(list (pair (int_bound 199) bool))
    (fun ops ->
      let v = Bitvec.create 200 in
      let m = Array.make 200 false in
      List.iter
        (fun (i, b) ->
          Bitvec.set v i b;
          m.(i) <- b)
        ops;
      let ok = ref true in
      Array.iteri (fun i b -> if Bitvec.get v i <> b then ok := false) m;
      !ok && Bitvec.popcount v = Array.fold_left (fun a b -> if b then a + 1 else a) 0 m)

(* A prefix blit copies bits [0, n) and leaves the rest of [dst] alone,
   at every length and byte alignment. *)
let prop_bitvec_blit_prefix =
  QCheck.Test.make ~name:"bitvec prefix blit models a bool array"
    QCheck.(triple (int_bound 70) (list bool) (list bool))
    (fun (n, xs, ys) ->
      let len = max n (max (List.length xs) (List.length ys)) in
      let bits l =
        let v = Bitvec.create len in
        List.iteri (fun i b -> Bitvec.set v i b) l;
        v
      in
      let src = bits xs and dst = bits ys and before = bits ys in
      Bitvec.blit_prefix ~src ~dst n;
      List.for_all
        (fun i ->
          Bitvec.get dst i = Bitvec.get (if i < n then src else before) i)
        (List.init len Fun.id))

let test_hashing () =
  let a = [| 1; 2; 3; 4; 5 |] in
  Alcotest.(check int) "window stable"
    (Hashing.hash_window a 1 3)
    (Hashing.hash_window [| 9; 2; 3; 4; 9 |] 1 3);
  Alcotest.(check bool) "different windows differ"
    true
    (Hashing.hash_window a 0 3 <> Hashing.hash_window a 1 3);
  let ix = Hashing.index_of_hash (Hashing.hash_list [ 42 ]) 8 in
  Alcotest.(check bool) "index in range" true (ix >= 0 && ix < 256)

(* The CRC-32 one byte a step, straight from the polynomial: the value
   the eight-byte steps must reproduce. *)
let crc32_bytewise s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc32 () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  let rng = Prng.create 32 in
  let s = String.init 80 (fun _ -> Char.chr (Prng.int rng 256)) in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      Alcotest.(check int)
        (Printf.sprintf "offset %d length %d" pos len)
        (crc32_bytewise s ~pos ~len) (Crc32.sub s ~pos ~len)
    done
  done;
  Alcotest.check_raises "range past the end" (Invalid_argument "Crc32.sub")
    (fun () -> ignore (Crc32.sub s ~pos:17 ~len:64))

let test_prng () =
  let a = Prng.create 1 and b = Prng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "deterministic" (Prng.next a) (Prng.next b)
  done;
  let c = Prng.create 2 in
  Alcotest.(check bool) "seed matters" true (Prng.next a <> Prng.next c);
  for _ = 1 to 1000 do
    let x = Prng.int c 17 in
    Alcotest.(check bool) "bound" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int c 0))

let () =
  Alcotest.run "util"
    [
      ( "dynarray",
        [
          Alcotest.test_case "basic" `Quick test_dyn_basic;
          Alcotest.test_case "bounds" `Quick test_dyn_bounds;
          Alcotest.test_case "round-trip" `Quick test_dyn_round_trip;
          QCheck_alcotest.to_alcotest prop_dyn_model;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "basic" `Quick test_bitvec;
          QCheck_alcotest.to_alcotest prop_bitvec_model;
          QCheck_alcotest.to_alcotest prop_bitvec_blit_prefix;
        ] );
      ("hashing", [ Alcotest.test_case "basic" `Quick test_hashing ]);
      ("crc32", [ Alcotest.test_case "eight bytes a step" `Quick test_crc32 ]);
      ("prng", [ Alcotest.test_case "determinism" `Quick test_prng ]);
    ]
