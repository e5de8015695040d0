(* The session-cursor contract: a WET is an immutable container, all
   traversal state lives in per-session handles — so any interleaving
   of query sequences on N sessions, including from separate domains,
   must produce answers byte-identical to running each sequence
   serially on a fresh session, and must leave the container's bytes
   as they were. Exercised on both tiers with QCheck-generated scripts,
   plus the salvage-damage behaviour of sessions (lazy Missing_stream
   vs strict open). *)

module W = Wet_core.Wet
module Builder = Wet_core.Builder
module Query = Wet_core.Query
module Slice = Wet_core.Slice
module SR = Wet_analyses.State_reconstruct
module Container = Wet_core.Container
module Faultsim = Wet_faultsim.Faultsim
module Interp = Wet_interp.Interp

(* ------------------------------------------------------------------ *)
(* Fixture: one program with recursion, arrays and output so every    *)
(* query family has work to do; both tiers.                           *)
(* ------------------------------------------------------------------ *)

let program_src =
  {|
global arr[10];
fn fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fn main() {
  var i = 0;
  while (i < 10) { arr[i] = fib(i); i = i + 1; }
  var sum = 0;
  var j = 0;
  while (j < 10) { sum = sum + arr[j]; j = j + 1; }
  print(sum);
}
|}

let tiers =
  lazy
    (let prog = Wet_minic.Frontend.compile_exn program_src in
     let w1 = Builder.run_streaming ~program:prog ~input:[||] () in
     [ ("tier1", w1); ("tier2", Builder.pack w1) ])

(* ------------------------------------------------------------------ *)
(* The op vocabulary: each op is self-contained (parks its own        *)
(* cursors where it needs them) and reduces its full answer to a      *)
(* deterministic string, so comparing per-script answer lists is the  *)
(* byte-identity check. Out-of-range inputs are part of the contract  *)
(* too: their structured errors must be identical as well.            *)
(* ------------------------------------------------------------------ *)

type op =
  | Cf_fwd
  | Cf_bwd
  | Loads
  | Addrs
  | Slice_b of int  (** backward slice from copy [k mod num_copies] *)
  | At of int  (** memory image at a timestamp *)
  | Locate of int
  | Cf_from of int * int

let op_to_string = function
  | Cf_fwd -> "cf_fwd"
  | Cf_bwd -> "cf_bwd"
  | Loads -> "loads"
  | Addrs -> "addrs"
  | Slice_b k -> Printf.sprintf "slice_b %d" k
  | At t -> Printf.sprintf "at %d" t
  | Locate t -> Printf.sprintf "locate %d" t
  | Cf_from (t, n) -> Printf.sprintf "cf_from %d %d" t n

let run_op sess op =
  let wet = W.Session.wet sess in
  let h = ref 0 and n = ref 0 in
  let add x y =
    incr n;
    h := Hashtbl.hash (!h, x, y)
  in
  let digest () = Printf.sprintf "%d:%d" !n !h in
  try
    match op with
    | Cf_fwd ->
      Query.Session.park sess Query.Forward;
      let c = Query.Session.control_flow sess Query.Forward ~f:add in
      Printf.sprintf "cf %d %s" c (digest ())
    | Cf_bwd ->
      Query.Session.park sess Query.Backward;
      let c = Query.Session.control_flow sess Query.Backward ~f:add in
      Printf.sprintf "cf %d %s" c (digest ())
    | Loads ->
      let c = Query.Session.load_values sess ~f:add in
      Printf.sprintf "loads %d %s" c (digest ())
    | Addrs ->
      let c = Query.Session.addresses sess ~f:add in
      Printf.sprintf "addrs %d %s" c (digest ())
    | Slice_b k ->
      let copies = Query.copies_matching wet (fun _ -> true) in
      let c = List.nth copies (k mod List.length copies) in
      let r = Slice.Session.backward sess c 0 ~f:add in
      Printf.sprintf "slice %d/%d/%d %s" r.Slice.instances r.Slice.copies
        r.Slice.stmts (digest ())
    | At ts ->
      let st = SR.at_session sess ~ts in
      List.iter (fun a -> add a (SR.read st a)) (SR.written st);
      Printf.sprintf "at %s" (digest ())
    | Locate ts -> (
      match Query.Session.locate_time sess ts with
      | None -> "locate none"
      | Some (node, i) -> Printf.sprintf "locate %d@%d" node i)
    | Cf_from (ts, steps) ->
      let c = Query.Session.control_flow_from sess ~start_ts:ts ~steps ~f:add in
      Printf.sprintf "cf_from %d %s" c (digest ())
  with
  | Wet_error.Error e -> "wet_error: " ^ Wet_error.message e
  | W.Missing_stream s -> "missing: " ^ s

let run_script sess ops = List.map (run_op sess) ops

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, return Cf_fwd);
        (3, return Cf_bwd);
        (3, return Loads);
        (3, return Addrs);
        (2, map (fun k -> Slice_b k) (int_bound 1000));
        (2, map (fun t -> At (1 + t)) (int_bound 300));
        (2, map (fun t -> Locate t) (int_bound 400));
        ( 1,
          map2
            (fun t n -> Cf_from (1 + t, n))
            (int_bound 300) (int_bound 12) );
      ])

(* K scripts (one per session) plus a seed for the interleaving. *)
let gen_case =
  QCheck.Gen.(
    let* k = int_range 2 4 in
    let* scripts =
      array_repeat k (list_size (int_range 1 5) gen_op)
    in
    let* seed = int_bound 1_000_000 in
    return (scripts, seed))

let print_case (scripts, seed) =
  Printf.sprintf "seed=%d [%s]" seed
    (String.concat " | "
       (Array.to_list
          (Array.map
             (fun ops -> String.concat "; " (List.map op_to_string ops))
             scripts)))

let arb_case = QCheck.make ~print:print_case gen_case

(* A deterministic merge of the scripts: per-script order preserved,
   cross-script order drawn from [seed]. *)
let interleave ~seed scripts =
  let st = Random.State.make [| seed |] in
  let rem = Array.map (fun l -> l) scripts in
  let order = ref [] in
  let total = Array.fold_left (fun a l -> a + List.length l) 0 scripts in
  for _ = 1 to total do
    let nonempty =
      Array.to_list rem
      |> List.mapi (fun k l -> (k, l))
      |> List.filter (fun (_, l) -> l <> [])
      |> List.map fst
    in
    let k = List.nth nonempty (Random.State.int st (List.length nonempty)) in
    match rem.(k) with
    | op :: tl ->
      rem.(k) <- tl;
      order := (k, op) :: !order
    | [] -> assert false
  done;
  List.rev !order

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Serial reference: each script on its own fresh session, one after
   another. *)
let serial_answers wet scripts =
  Array.map (fun ops -> run_script (W.open_session wet) ops) scripts

let check_identical name serial got =
  Array.iteri
    (fun k want ->
      if got.(k) <> want then
        Alcotest.failf "%s: session %d diverged\n  serial: %s\n  got:    %s"
          name k
          (String.concat " / " want)
          (String.concat " / " got.(k)))
    serial;
  true

(* Queries never write into the container: its bytes after the scripts
   are the bytes it had before them. *)
let check_unwritten name wet before =
  if Container.encode wet <> before then
    Alcotest.failf "%s: the queries changed the container's bytes" name;
  true

(* Interleaved in one thread: K live sessions, ops merged randomly. *)
let prop_interleaved name wet (scripts, seed) =
  let before = Container.encode wet in
  let serial = serial_answers wet scripts in
  let sessions = Array.map (fun _ -> W.open_session wet) scripts in
  let answers = Array.map (fun _ -> ref []) scripts in
  List.iter
    (fun (k, op) -> answers.(k) := run_op sessions.(k) op :: !(answers.(k)))
    (interleave ~seed scripts);
  check_identical (name ^ "/interleaved") serial
    (Array.map (fun r -> List.rev !r) answers)
  && check_unwritten (name ^ "/interleaved") wet before

(* Truly concurrent: the scripts split across two domains, each domain
   opening its own sessions over the shared container. *)
let prop_domains name wet (scripts, _seed) =
  let before = Container.encode wet in
  let serial = serial_answers wet scripts in
  let n = Array.length scripts in
  let half = n / 2 in
  let run lo hi () =
    Array.init (hi - lo) (fun i ->
        run_script (W.open_session wet) scripts.(lo + i))
  in
  let d1 = Domain.spawn (run 0 half) in
  let d2 = Domain.spawn (run half n) in
  let r1 = Domain.join d1 in
  let r2 = Domain.join d2 in
  check_identical (name ^ "/domains") serial (Array.append r1 r2)
  && check_unwritten (name ^ "/domains") wet before

let qcheck_tests =
  List.concat_map
    (fun (name, wet) ->
      [
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make
             ~name:(name ^ ": interleaved sessions = serial")
             ~count:40 arb_case (prop_interleaved name wet));
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make
             ~name:(name ^ ": two domains = serial")
             ~count:10 arb_case (prop_domains name wet));
      ])
    (Lazy.force tiers)

(* ------------------------------------------------------------------ *)
(* Sessions over salvage damage                                        *)
(* ------------------------------------------------------------------ *)

(* Flip a bit in the middle of [sec] and salvage-load the result. *)
let damaged_wet wet sec =
  let data = Container.encode wet in
  let sections =
    match Container.examine data with
    | Ok h -> h.Container.hl_sections
    | Error f -> Alcotest.failf "examine: %s" (Container.fault_message f)
  in
  let s =
    List.find (fun s -> s.Container.sec_name = sec) sections
  in
  let off = s.Container.sec_offset + (s.Container.sec_length / 2) in
  let mutilated = Faultsim.apply (Faultsim.Bit_flip { offset = off; bit = 5 }) data in
  match Container.decode ~salvage:true mutilated with
  | Ok (w, _) -> w
  | Error f -> Alcotest.failf "salvage: %s" (Container.fault_message f)

let test_salvaged_session () =
  List.iter
    (fun (name, wet) ->
      let w = damaged_wet wet "labels.values" in
      Alcotest.(check (list string))
        (name ^ ": damage recorded") [ "labels.values" ] w.W.damage;
      (* a lazy session opens fine... *)
      let s = W.open_session w in
      (* ...answers queries on surviving sections... *)
      Query.Session.park s Query.Forward;
      let full = W.open_session wet in
      Query.Session.park full Query.Forward;
      let cf sess =
        let acc = ref [] in
        ignore
          (Query.Session.control_flow sess Query.Forward ~f:(fun f b ->
               acc := (f, b) :: !acc));
        !acc
      in
      Alcotest.(check bool)
        (name ^ ": control flow survives") true (cf s = cf full);
      (* ...and raises Missing_stream only where the damage is *)
      (match Query.Session.load_values s ~f:(fun _ _ -> ()) with
      | _ -> Alcotest.failf "%s: lost values must raise" name
      | exception W.Missing_stream m ->
        Alcotest.(check string) (name ^ ": names the stream") "labels.values" m))
    (Lazy.force tiers)

let test_strict_open () =
  List.iter
    (fun (name, wet) ->
      let w = damaged_wet wet "labels.values" in
      (match W.open_session ~strict:true w with
      | _ -> Alcotest.failf "%s: strict open on damage must raise" name
      | exception Wet_error.Error e ->
        Alcotest.(check bool)
          (name ^ ": Query stage") true
          (e.Wet_error.stage = Wet_error.Query));
      (* strict open on a clean container is fine *)
      ignore (W.open_session ~strict:true wet))
    (Lazy.force tiers)

(* Opening a session is cheap and does not disturb existing ones. *)
let test_open_isolation () =
  List.iter
    (fun (name, wet) ->
      let a = W.open_session wet in
      Query.Session.park a Query.Forward;
      let before = run_op a Cf_fwd in
      let b = W.open_session wet in
      let b_ans = run_op b Cf_fwd in
      let again = run_op a Cf_fwd in
      Alcotest.(check string) (name ^ ": b matches a") before b_ans;
      Alcotest.(check string) (name ^ ": a undisturbed") before again)
    (Lazy.force tiers)

let () =
  Alcotest.run "session"
    [
      ("interleaving", qcheck_tests);
      ( "salvage",
        [
          Alcotest.test_case "lazy sessions raise Missing_stream" `Quick
            test_salvaged_session;
          Alcotest.test_case "strict open_session raises Wet_error" `Quick
            test_strict_open;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "open_session leaves peers untouched" `Quick
            test_open_isolation;
        ] );
    ]
