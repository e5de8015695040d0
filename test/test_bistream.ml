module Bidir = Wet_bistream.Bidir
module Stream = Wet_bistream.Stream

(* A cursor counting in a ledger of its own. *)
let cursor s =
  Stream.Cursor.make ~tally:(Wet_bistream.Telemetry.make ()) ~label:0 s

let all_variants =
  List.concat_map (fun m -> [ (m, 1); (m, 2); (m, 4) ]) Bidir.all_meths

let variant_name (m, c) = Printf.sprintf "%s/%d" (Bidir.meth_name m) c

(* Reference streams covering the behaviours each method targets. *)
let fixtures rng =
  [
    ("constant", Array.make 2000 42);
    ("stride", Array.init 2000 (fun i -> (5 * i) - 300));
    ("periodic", Array.init 2000 (fun i -> [| 3; 1; 4; 1; 5; 9 |].(i mod 6)));
    ("random", Array.init 2000 (fun _ -> Wet_util.Prng.int rng 1_000_000 - 500_000));
    ("mixed", Array.init 2000 (fun i -> if i mod 13 < 10 then i / 13 else Wet_util.Prng.int rng 50));
    ("tiny", [| 7; -3; 7 |]);
    ("single", [| 123 |]);
    ("empty", [||]);
  ]

(* [to_array] reads a template parked at the left end in one pass,
   without a step: it must give what stepping a clone forward gives, and
   leave the template as it found it. *)
let test_round_trip () =
  let rng = Wet_util.Prng.create 99 in
  List.iter
    (fun (name, arr) ->
      List.iter
        (fun (m, c) ->
          let tag = Printf.sprintf "%s %s" name (variant_name (m, c)) in
          let b = Bidir.compress m ~ctx:c arr in
          let before = Bidir.clone b in
          let walk =
            let w = Bidir.clone b in
            Array.init (Array.length arr) (fun _ -> Bidir.step_forward w)
          in
          let read = Bidir.to_array b in
          Alcotest.(check (array int)) (tag ^ " forward") arr walk;
          Alcotest.(check (array int)) (tag ^ " read = walk") walk read;
          Alcotest.(check bool) (tag ^ " template untouched") true
            (Bidir.same_state before b);
          (* backward read from the right end *)
          Bidir.seek b (Array.length arr);
          let back = Array.init (Array.length arr) (fun _ -> Bidir.step_backward b) in
          let fwd = Array.init (Array.length arr) (fun i -> back.(Array.length arr - 1 - i)) in
          Alcotest.(check (array int)) (tag ^ " backward") arr fwd)
        all_variants)
    (fixtures rng)

let test_peek_is_pure () =
  let arr = Array.init 500 (fun i -> i * i mod 97) in
  List.iter
    (fun (m, c) ->
      let b = Bidir.compress m ~ctx:c arr in
      Bidir.seek b 250;
      let p1 = Bidir.peek_forward b in
      let p2 = Bidir.peek_forward b in
      Alcotest.(check int) "peek stable" p1 p2;
      Alcotest.(check int) "peek = value" arr.(250) p1;
      Alcotest.(check int) "peek backward" arr.(249) (Bidir.peek_backward b);
      Alcotest.(check int) "cursor unchanged" 250 (Bidir.cursor b))
    all_variants

let prop_random_walk =
  QCheck.Test.make ~name:"random cursor walks read the right values" ~count:40
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      n = 0
      ||
      let rng = Wet_util.Prng.create seed in
      List.for_all
        (fun (m, c) ->
          let b = Bidir.compress m ~ctx:c arr in
          let ok = ref true in
          for _ = 1 to 60 do
            let k = Wet_util.Prng.int rng n in
            if Bidir.read_at b k <> arr.(k) then ok := false
          done;
          !ok)
        [ (Bidir.Fcm, 2); (Bidir.Dfcm, 2); (Bidir.Last_n, 4); (Bidir.Last_stride, 1) ])

let prop_states_position_determined =
  (* Bidirectionality: arriving at a cursor position by any route leaves
     identical observable state (same reads thereafter). *)
  QCheck.Test.make ~name:"state depends only on cursor position" ~count:25
    QCheck.(list small_int)
    (fun xs ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      n < 4
      ||
      List.for_all
        (fun (m, c) ->
          let b = Bidir.compress m ~ctx:c arr in
          Bidir.seek b (n / 2);
          let direct = Bidir.peek_forward b in
          (* wander: to end, to start, back to the middle *)
          Bidir.seek b n;
          Bidir.seek b 0;
          Bidir.seek b (n / 2);
          let wandered = Bidir.peek_forward b in
          direct = wandered)
        all_variants)

let test_compression_effectiveness () =
  let check name arr expected_min_ratio meths =
    List.iter
      (fun (m, c) ->
        let b = Bidir.compress m ~ctx:c arr in
        let ratio =
          float_of_int (32 * Array.length arr)
          /. float_of_int (Bidir.compressed_bits b)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s ratio %.2f >= %.2f" name (variant_name (m, c))
             ratio expected_min_ratio)
          true
          (ratio >= expected_min_ratio))
      meths
  in
  (* a constant stream is near-free for the last-n family *)
  check "constant" (Array.make 10000 5) 20. [ (Bidir.Last_n, 1) ];
  (* arithmetic progressions are near-free for stride methods *)
  check "stride" (Array.init 10000 (fun i -> 7 * i)) 12.
    [ (Bidir.Last_stride, 2) ];
  (* the FCM family pays for its lookup tables, capping its ratio *)
  check "stride" (Array.init 10000 (fun i -> 7 * i)) 6. [ (Bidir.Dfcm, 2) ];
  (* periodic patterns suit FCM once the context disambiguates the
     period (context 2 is genuinely ambiguous here: (8,2) is followed by
     both 8 and 7) *)
  check "periodic"
    (Array.init 10000 (fun i -> [| 2; 7; 1; 8; 2; 8 |].(i mod 6)))
    6. [ (Bidir.Fcm, 4) ];
  check "periodic-ambiguous"
    (Array.init 10000 (fun i -> [| 2; 7; 1; 8; 2; 8 |].(i mod 6)))
    1.5 [ (Bidir.Fcm, 2) ]

let test_selection () =
  (* the facade picks something at least as small as raw *)
  let rng = Wet_util.Prng.create 5 in
  List.iter
    (fun (name, arr) ->
      let s = Stream.compress arr in
      Alcotest.(check (array int)) (name ^ " roundtrip") arr
        (Stream.Cursor.to_array (cursor s));
      Alcotest.(check bool) (name ^ " not worse than raw") true
        (Stream.bits s <= (32 * Array.length arr) + 1))
    (fixtures rng)

let test_selection_picks_sensibly () =
  let s = Stream.compress (Array.make 5000 9) in
  Alcotest.(check bool) "constant stream is packed" true
    (Stream.method_name s <> "raw");
  let rng = Wet_util.Prng.create 17 in
  let s = Stream.compress (Array.init 5000 (fun _ -> Wet_util.Prng.next rng)) in
  Alcotest.(check string) "random stream stays raw" "raw" (Stream.method_name s)

let test_find_ascending () =
  let arr = Array.init 1000 (fun i -> 3 * i) in
  List.iter
    (fun spec ->
      let c = cursor (Stream.compress_with spec arr) in
      let find = Stream.Cursor.find_ascending c in
      Alcotest.(check (option int)) "present" (Some 100) (find 300);
      Alcotest.(check (option int)) "absent" None (find 301);
      Alcotest.(check (option int)) "first" (Some 0) (find 0);
      Alcotest.(check (option int)) "last" (Some 999) (find 2997);
      Alcotest.(check (option int)) "beyond" None (find 5000))
    [ `Raw; `Bidir (Bidir.Dfcm, 2); `Bidir (Bidir.Last_stride, 1) ]

let test_lower_bound () =
  let arr = Array.init 100 (fun i -> 2 * i) in
  List.iter
    (fun spec ->
      let c = cursor (Stream.compress_with spec arr) in
      let lower_bound = Stream.Cursor.lower_bound c in
      Alcotest.(check int) "exact" 5 (lower_bound 10);
      Alcotest.(check int) "between" 6 (lower_bound 11);
      Alcotest.(check int) "before" 0 (lower_bound (-5));
      Alcotest.(check int) "after" 100 (lower_bound 1000))
    [ `Raw; `Bidir (Bidir.Dfcm, 2); `Bidir (Bidir.Last_n, 1) ]

let test_cursor_bounds () =
  let b = Bidir.compress Bidir.Fcm ~ctx:2 [| 1; 2; 3 |] in
  Alcotest.check_raises "backward at start"
    (Invalid_argument "Bidir.step_backward: at left end") (fun () ->
      ignore (Bidir.step_backward b));
  Bidir.seek b 3;
  Alcotest.check_raises "forward at end"
    (Invalid_argument "Bidir.step_forward: at right end") (fun () ->
      ignore (Bidir.step_forward b));
  Alcotest.check_raises "to_array off the left end"
    (Invalid_argument "Bidir.to_array: cursor not at the left end") (fun () ->
      ignore (Bidir.to_array b));
  Alcotest.check_raises "bad ctx" (Invalid_argument "Bidir.compress: ctx must be in [1,16]")
    (fun () -> ignore (Bidir.compress Bidir.Fcm ~ctx:0 [| 1 |]))

(* ---------------- construction and selection equivalence ---------------- *)

(* Structured value streams: a periodic pattern over a small or a large
   alphabet, shifted by a stride, with a share of noise. Lengths run to
   5000, with extra weight on the edges: shorter than a context, and the
   selection prefix (4096) and one past it. *)
let gen_values =
  let open QCheck.Gen in
  let* len =
    frequency
      [
        (2, int_bound 20);
        (1, oneofl [ 4095; 4096; 4097 ]);
        (3, int_bound 300);
        (3, int_bound 5000);
      ]
  in
  let* alphabet = oneof [ int_range 1 4; int_range 1 1000 ] in
  let* stride = int_range (-3) 3 in
  let* noise = int_bound 10 in
  let* period = int_range 1 9 in
  let* seed = int_bound 1_000_000 in
  let rng = Wet_util.Prng.create seed in
  let pattern = Array.init period (fun _ -> Wet_util.Prng.int rng alphabet) in
  return
    (Array.init len (fun i ->
         if Wet_util.Prng.int rng 10 < noise then Wet_util.Prng.int rng alphabet
         else (stride * i) + pattern.(i mod period)))

let arb_values =
  QCheck.make gen_values ~print:(fun a ->
      Printf.sprintf "length %d: %s" (Array.length a)
        (QCheck.Print.(array int) (Array.sub a 0 (min 40 (Array.length a)))))

(* All twelve selection candidates, plus the widest context. *)
let construction_variants =
  Stream.candidates @ List.map (fun m -> (m, 16)) Bidir.all_meths

(* The one-pass construction must leave exactly the state real stepping
   reaches: walk the cursor to the right end and back, and the stream
   marshals to the same bytes. *)
let prop_construction_is_stepping =
  QCheck.Test.make ~name:"compress equals the state stepping reaches"
    ~count:60 arb_values (fun a ->
      List.for_all
        (fun (m, ctx) ->
          let built = Marshal.to_string (Bidir.compress m ~ctx a) [] in
          let b = Bidir.compress m ~ctx a in
          Bidir.seek b (Array.length a);
          Bidir.seek b 0;
          built = Marshal.to_string b [])
        construction_variants)

(* A trial counts what [compressed_bits] reports for the built stream,
   and with a limit it answers "too big" exactly when that size is at
   least the limit. *)
let prop_trial_counts_bits =
  QCheck.Test.make ~name:"trial bits equal compressed_bits" ~count:60
    QCheck.(pair arb_values small_int)
    (fun (a, slack) ->
      List.for_all
        (fun (m, ctx) ->
          let size = Bidir.compressed_bits (Bidir.compress m ~ctx a) in
          let full = Bidir.trial m ~ctx a in
          full.Bidir.trial_bits = size
          && full.Bidir.trial_entries = Array.length a + ctx
          && List.for_all
               (fun limit ->
                 let r = Bidir.trial ~limit m ~ctx a in
                 if size >= limit then r.Bidir.trial_bits >= limit
                 else r.Bidir.trial_bits = size)
               [ size - 1 - slack; size - 1; size; size + 1; size + slack; 0 ])
        construction_variants)

(* Selection written out as an exhaustive scan: build every candidate
   over the first 4096 values, in [candidates] order, and keep the first
   strictly smallest; raw competes at 32 bits a value and wins ties;
   streams under 16 values stay raw. *)
let exhaustive_pick a =
  let n = Array.length a in
  if n < 16 then "raw"
  else begin
    let prefix = Array.sub a 0 (min n 4096) in
    let best = ref ("raw", 32 * Array.length prefix) in
    List.iter
      (fun (m, ctx) ->
        let bits = Bidir.compressed_bits (Bidir.compress m ~ctx prefix) in
        if bits < snd !best then
          best := (Printf.sprintf "%s/%d" (Bidir.meth_name m) ctx, bits))
      Stream.candidates;
    fst !best
  end

let prop_selection_is_exhaustive =
  QCheck.Test.make ~name:"selection equals the exhaustive pick" ~count:200
    arb_values (fun a ->
      Stream.method_name (Stream.compress a) = exhaustive_pick a)

(* Ties between candidates must go to the first in [candidates] order
   even though the trials run in another: on a constant stream several
   last-n-family candidates reach the same size, and on the short
   stream below last-n/2 ties last-stride/2, whose trial runs first. *)
let test_selection_ties () =
  List.iter
    (fun a ->
      Alcotest.(check string)
        (Printf.sprintf "length %d" (Array.length a))
        (exhaustive_pick a)
        (Stream.method_name (Stream.compress a)))
    [
      [| 0; 1; 2; 4; 4; 1; 6; -7; 8; 9; -10; 1; -12; 1; 14; 16; 0; 1 |];
      Array.make 16 0;
      Array.make 100 7;
      Array.make 5000 (-1);
      Array.init 64 (fun i -> i);
      Array.init 4097 (fun i -> 3 * i);
    ]

(* ---------------- pure peeks and template rewinds ---------------- *)

module Cursor = Stream.Cursor

(* A random cursor script over [n] values: steps both ways, seeks
   anywhere, seeks near the left end (where an FCM stream's tables
   outweigh the prefix a rewind copies), reads, and returns to the left
   end. *)
type op = Fwd | Bwd | Seek of int | Read of int | Rewind

let script rng n len =
  List.init len (fun _ ->
      match Wet_util.Prng.int rng 6 with
      | 0 -> Fwd
      | 1 -> Bwd
      | 2 -> Seek (Wet_util.Prng.int rng (n + 1))
      | 3 -> Seek (Wet_util.Prng.int rng (min n 40 + 1))
      | 4 -> Read (Wet_util.Prng.int rng (max n 1))
      | _ -> Rewind)

(* [Rewind] is the template copy itself, so the states peeks see
   include those a rewind leaves. *)
let apply_bidir ~template b = function
  | Fwd -> if Bidir.cursor b < Bidir.length b then ignore (Bidir.step_forward b)
  | Bwd -> if Bidir.cursor b > 0 then ignore (Bidir.step_backward b)
  | Seek k -> Bidir.seek b k
  | Read k -> if k < Bidir.length b then ignore (Bidir.read_at b k)
  | Rewind -> Bidir.rewind ~template b

let apply_cursor c = function
  | Fwd -> if Cursor.pos c < Cursor.length c then ignore (Cursor.step_forward c)
  | Bwd -> if Cursor.pos c > 0 then ignore (Cursor.step_backward c)
  | Seek k -> Cursor.seek c k
  | Read k -> if k < Cursor.length c then ignore (Cursor.read_at c k)
  | Rewind -> Cursor.seek c 0

(* At every position a script reaches, each peek reveals what a step
   and its inverse on a clone reveal, and leaves the cursor marshalling
   to the same bytes. *)
let prop_peeks_are_reads =
  QCheck.Test.make ~name:"peeks read what a step reveals and write nothing"
    ~count:30
    QCheck.(pair arb_values small_int)
    (fun (a, seed) ->
      let n = Array.length a in
      let rng = Wet_util.Prng.create seed in
      List.for_all
        (fun (m, ctx) ->
          let template = Bidir.compress m ~ctx a in
          let b = Bidir.clone template in
          List.for_all
            (fun op ->
              apply_bidir ~template b op;
              let frozen = Marshal.to_string b [] in
              let unmoved () = Marshal.to_string b [] = frozen in
              let forward =
                Bidir.cursor b >= n
                ||
                let v = Bidir.peek_forward b in
                unmoved ()
                &&
                let c = Bidir.clone b in
                let x = Bidir.step_forward c in
                ignore (Bidir.step_backward c);
                v = x
              and backward =
                Bidir.cursor b = 0
                ||
                let v = Bidir.peek_backward b in
                unmoved ()
                &&
                let c = Bidir.clone b in
                let x = Bidir.step_backward c in
                ignore (Bidir.step_forward c);
                v = x
              in
              forward && backward)
            (script rng n 30))
        construction_variants)

(* A cursor over [s] taken to [k] by single steps from wherever [c]
   stands: what stepping a clone of [c] to [k] reaches. *)
let stepped_copy s c k =
  let r = cursor s in
  for _ = 1 to Cursor.pos c do
    ignore (Cursor.step_forward r)
  done;
  while Cursor.pos r > k do
    ignore (Cursor.step_backward r)
  done;
  while Cursor.pos r < k do
    ignore (Cursor.step_forward r)
  done;
  r

(* After any script, a seek and a read leave the state single steps
   reach, whether they rewound from the template or stepped; the seek
   reports the steps it took, and the values onward read right. *)
let prop_seek_is_stepping =
  QCheck.Test.make ~name:"cursor seeks and reads reach the stepped state"
    ~count:30
    QCheck.(pair arb_values small_int)
    (fun (a, seed) ->
      let n = Array.length a in
      let rng = Wet_util.Prng.create seed in
      List.for_all
        (fun (m, ctx) ->
          let s = Stream.compress_with (`Bidir (m, ctx)) a in
          List.for_all
            (fun k ->
              let c = cursor s in
              List.iter (apply_cursor c) (script rng n 8);
              let p0 = Cursor.pos c in
              let r = stepped_copy s c k in
              let d = Cursor.seek_steps c k in
              let seek_ok =
                Cursor.same_state c r
                && (d = abs (k - p0) || (k < p0 && d = k))
              in
              let onward = ref true in
              for i = k to n - 1 do
                if Cursor.step_forward c <> a.(i) then onward := false
              done;
              let read_ok =
                n = 0
                ||
                let j = Wet_util.Prng.int rng n in
                let r = stepped_copy s c (j + 1) in
                Cursor.read_at c j = a.(j) && Cursor.same_state c r
              in
              seek_ok && !onward && read_ok)
            [
              0; n; Wet_util.Prng.int rng (n + 1);
              Wet_util.Prng.int rng (min n 40 + 1);
            ])
        construction_variants)

(* Both routes are taken: far from the left end a seek rewinds, even on
   an FCM stream whose tables outweigh the prefix it copies, and one
   entry back it steps. A raw cursor decodes nothing. *)
let test_seek_rewinds_when_cheaper () =
  let a = Array.init 5000 (fun i -> i * 37 mod 211) in
  let s = Stream.compress_with (`Bidir (Bidir.Fcm, 1)) a in
  let c = cursor s in
  let check what k expected =
    let r = stepped_copy s c k in
    Alcotest.(check int) (what ^ ": entries decoded") expected
      (Cursor.seek_steps c k);
    Alcotest.(check bool) (what ^ ": stepped state") true
      (Cursor.same_state c r)
  in
  Cursor.seek c 3000;
  check "far left: rewind, then step forward" 10 10;
  Cursor.seek c 30;
  check "tables beyond the prefix: rewind" 0 0;
  Cursor.seek c 31;
  check "one back: step" 30 1;
  check "forward: step" 4000 3970;
  let raw = cursor (Stream.compress_with `Raw a) in
  Cursor.seek raw 4000;
  Alcotest.(check int) "raw: an index" 0 (Cursor.seek_steps raw 5)

(* Peeks and a rewind allocate nothing. *)
let test_reads_allocate_nothing () =
  let a = Array.init 3000 (fun i -> i * 7 mod 1000) in
  List.iter
    (fun (m, ctx) ->
      let what = variant_name (m, ctx) in
      let b = Bidir.compress m ~ctx a in
      Bidir.seek b 1500;
      let c = cursor (Stream.compress_with (`Bidir (m, ctx)) a) in
      Cursor.seek c 1500;
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Bidir.peek_forward b));
        ignore (Sys.opaque_identity (Bidir.peek_backward b));
        ignore (Sys.opaque_identity (Cursor.peek_forward c));
        ignore (Sys.opaque_identity (Cursor.peek_backward c))
      done;
      let after = Gc.minor_words () in
      Alcotest.(check (float 0.)) (what ^ ": minor words of 4,000 peeks") 0.
        (after -. before);
      let before = Gc.minor_words () in
      let d = Cursor.seek_steps c 0 in
      let after = Gc.minor_words () in
      Alcotest.(check int) (what ^ ": the seek rewound") 0 d;
      Alcotest.(check (float 0.)) (what ^ ": minor words of a rewind") 0.
        (after -. before))
    construction_variants

let () =
  Alcotest.run "bistream"
    [
      ( "bidir",
        [
          Alcotest.test_case "round trips" `Quick test_round_trip;
          Alcotest.test_case "peek purity" `Quick test_peek_is_pure;
          Alcotest.test_case "cursor bounds" `Quick test_cursor_bounds;
          QCheck_alcotest.to_alcotest prop_random_walk;
          QCheck_alcotest.to_alcotest prop_states_position_determined;
        ] );
      ( "compression",
        [
          Alcotest.test_case "effectiveness" `Quick test_compression_effectiveness;
          QCheck_alcotest.to_alcotest prop_construction_is_stepping;
          QCheck_alcotest.to_alcotest prop_trial_counts_bits;
        ] );
      ( "selection",
        [
          Alcotest.test_case "never worse than raw" `Quick test_selection;
          Alcotest.test_case "sensible picks" `Quick test_selection_picks_sensibly;
          Alcotest.test_case "find_ascending" `Quick test_find_ascending;
          Alcotest.test_case "lower_bound" `Quick test_lower_bound;
          Alcotest.test_case "ties go to the first candidate" `Quick
            test_selection_ties;
          QCheck_alcotest.to_alcotest prop_selection_is_exhaustive;
        ] );
      ( "cursor",
        [
          QCheck_alcotest.to_alcotest prop_peeks_are_reads;
          QCheck_alcotest.to_alcotest prop_seek_is_stepping;
          Alcotest.test_case "rewind or step" `Quick
            test_seek_rewinds_when_cheaper;
          Alcotest.test_case "reads allocate nothing" `Quick
            test_reads_allocate_nothing;
        ] );
    ]
