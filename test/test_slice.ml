(* The slice walk. Backward, forward and chop slices from random
   criteria, over tier-1 and tier-2 containers of several programs, hand
   [f] the same instances in the same order, return the same result and
   take the same cursor steps as a reference walk: a worklist list with
   a visited [Hashtbl] keyed by (copy, instance) tuples, the walk WET
   slices had before their visited set became a bitset per copy. And a
   backward slice puts at most two words into the major heap per
   instance it visits. *)

module W = Wet_core.Wet
module S = W.Session
module Slice = Wet_core.Slice
module Builder = Wet_core.Builder
module Wl = Wet_workloads.Spec
module Cursor = Wet_bistream.Stream.Cursor
module Telemetry = Wet_bistream.Telemetry
module Query = Wet_core.Query

(* ------------------------------------------------------------------ *)
(* The reference walk                                                  *)
(* ------------------------------------------------------------------ *)

module Ref = struct
  let walk ~max_instances ~f (t : W.t) c0 i0 ~expand =
    let visited = Hashtbl.create 1024 in
    let copies = Hashtbl.create 256 in
    let stmts = Hashtbl.create 256 in
    let work = ref [ (c0, i0) ] in
    let count = ref 0 in
    let truncated = ref false in
    let push c i =
      if not (Hashtbl.mem visited (c, i)) then begin
        Hashtbl.replace visited (c, i) ();
        work := (c, i) :: !work
      end
    in
    Hashtbl.replace visited (c0, i0) ();
    let continue_ = ref true in
    while !continue_ do
      match !work with
      | [] -> continue_ := false
      | (c, i) :: rest ->
        work := rest;
        incr count;
        (match f with Some f -> f c i | None -> ());
        Hashtbl.replace copies c ();
        Hashtbl.replace stmts t.W.copy_stmt.(c) ();
        (match max_instances with
         | Some m when !count >= m ->
           truncated := true;
           continue_ := false
         | Some _ | None -> expand c i push)
    done;
    {
      Slice.instances = !count;
      copies = Hashtbl.length copies;
      stmts = Hashtbl.length stmts;
      truncated = !truncated;
    }

  let backward ?max_instances ?f s c0 i0 =
    let t = S.wet s in
    let expand c i push =
      let nslots = Array.length t.W.copy_deps.(c) in
      for slot = 0 to nslots - 1 do
        match S.resolve_dep s c i slot with
        | Some (pc, pi) -> push pc pi
        | None -> ()
      done;
      match S.resolve_cd s c i with
      | Some (pc, pi) -> push pc pi
      | None -> ()
    in
    walk ~max_instances ~f t c0 i0 ~expand

  let forward ?max_instances ?f s c0 i0 =
    let t = S.wet s in
    let expand c i push =
      List.iter (fun cc -> push cc i) t.W.copy_local_out.(c);
      List.iter
        (fun (e : W.edge) ->
          let dst, src = S.label_cursors s e.W.e_labels in
          Cursor.seek src 0;
          for j = 0 to Cursor.length src - 1 do
            if Cursor.step_forward src = i then
              push e.W.e_dst (Cursor.read_at dst j)
          done)
        t.W.copy_remote_out.(c)
    in
    walk ~max_instances ~f t c0 i0 ~expand

  let chop ?max_instances ?f s ~source ~sink =
    let t = S.wet s in
    let sc, si = source and kc, ki = sink in
    let fwd = Hashtbl.create 256 in
    ignore
      (forward ?max_instances s sc si ~f:(fun c i ->
           Hashtbl.replace fwd (c, i) ()));
    let count = ref 0 in
    let copies = Hashtbl.create 64 in
    let stmts = Hashtbl.create 64 in
    let back =
      backward ?max_instances s kc ki ~f:(fun c i ->
          if Hashtbl.mem fwd (c, i) then begin
            incr count;
            (match f with Some f -> f c i | None -> ());
            Hashtbl.replace copies c ();
            Hashtbl.replace stmts t.W.copy_stmt.(c) ()
          end)
    in
    {
      Slice.instances = !count;
      copies = Hashtbl.length copies;
      stmts = Hashtbl.length stmts;
      truncated = back.Slice.truncated;
    }
end

(* ------------------------------------------------------------------ *)
(* Containers                                                          *)
(* ------------------------------------------------------------------ *)

let build_at ~div name =
  let spec = Wl.find name in
  let scale = max 1 (spec.Wl.timing_scale / div) in
  Builder.run_streaming ~program:(Wl.compile spec)
    ~input:(Wl.input spec ~scale) ()

(* Tier 1 and tier 2 of several programs at a 64th of their timing
   scale: 126.gcc and 130.li pack part of their streams, so their
   tier-2 walks step packed label cursors. *)
let containers =
  lazy
    (List.concat_map
       (fun name ->
         let w1 = build_at ~div:64 name in
         [ (name ^ " tier-1", w1); (name ^ " tier-2", Builder.pack w1) ])
       [ "197.parser"; "126.gcc"; "130.li"; "164.gzip"; "255.vortex" ])

(* ------------------------------------------------------------------ *)
(* Same instances, same order, same result, same steps                 *)
(* ------------------------------------------------------------------ *)

type kind = Backward | Forward | Chop

type case = {
  wet : int;  (* index into [containers] *)
  kind : kind;
  a : int;  (* picks the criterion (the sink of a chop) *)
  b : int;  (* picks a chop's source within the sink's backward slice *)
  max_instances : int option;
}

let kind_name = function
  | Backward -> "backward"
  | Forward -> "forward"
  | Chop -> "chop"

let print_case k =
  let name, _ = List.nth (Lazy.force containers) k.wet in
  Printf.sprintf "%s %s a=%d b=%d max=%s" name (kind_name k.kind) k.a k.b
    (match k.max_instances with None -> "none" | Some m -> string_of_int m)

(* A forward step scans every out-edge's producer stream, so an
   unbounded forward walk from an early instance costs the square of
   the run; forward slices and chops are always bounded, backward ones
   sometimes not. *)
let gen_case =
  QCheck.Gen.(
    let bounded =
      frequency
        [
          (2, map Option.some (int_range 1 8));
          (3, map Option.some (int_range 9 2_000));
        ]
    in
    let* wet = int_bound 9 and* a = int_bound 1_000_000
    and* b = int_bound 1_000_000 in
    let* kind = oneofl [ Backward; Forward; Chop ] in
    let+ max_instances =
      match kind with
      | Backward -> frequency [ (1, return None); (2, bounded) ]
      | Forward | Chop -> bounded
    in
    { wet; kind; a; b; max_instances })

(* An in-range criterion picked by [a]. *)
let criterion wet a =
  let c = a mod W.num_copies wet in
  (c, a / W.num_copies wet mod (W.node_of_copy wet c).W.n_nexec)

let run_case k =
  let _, wet = List.nth (Lazy.force containers) k.wet in
  let max_instances = k.max_instances in
  (* the walk under test and the reference each on a fresh session *)
  let go slice =
    let s = W.open_session wet in
    let seen = ref [] in
    let f c i = seen := (c, i) :: !seen in
    let r = slice s f in
    (r, List.rev !seen, Telemetry.snapshot ~tally:(S.tally s) ())
  in
  let ((c, i) as crit) = criterion wet k.a in
  let want, got =
    match k.kind with
    | Backward ->
      ( go (fun s f -> Ref.backward ?max_instances ~f s c i),
        go (fun s f -> Slice.Session.backward ?max_instances ~f s c i) )
    | Forward ->
      ( go (fun s f -> Ref.forward ?max_instances ~f s c i),
        go (fun s f -> Slice.Session.forward ?max_instances ~f s c i) )
    | Chop ->
      (* a source inside the sink's backward cone, so most chops are
         not empty *)
      let cone = ref [] in
      ignore
        (Ref.backward ~max_instances:500 (W.open_session wet) c i
           ~f:(fun c i -> cone := (c, i) :: !cone));
      let cone = Array.of_list !cone in
      let source = cone.(k.b mod Array.length cone) in
      ( go (fun s f -> Ref.chop ?max_instances ~f s ~source ~sink:crit),
        go (fun s f -> Slice.Session.chop ?max_instances ~f s ~source ~sink:crit)
      )
  in
  let r0, f0, t0 = want and r1, f1, t1 = got in
  if r0 <> r1 then
    QCheck.Test.fail_reportf
      "result differs: want %d/%d/%d/%b, got %d/%d/%d/%b" r0.Slice.instances
      r0.Slice.copies r0.Slice.stmts r0.Slice.truncated r1.Slice.instances
      r1.Slice.copies r1.Slice.stmts r1.Slice.truncated;
  if f0 <> f1 then
    QCheck.Test.fail_reportf "f sequences differ (%d vs %d calls)"
      (List.length f0) (List.length f1);
  if t0 <> t1 then
    QCheck.Test.fail_reportf "ledgers differ: %d vs %d steps"
      (Telemetry.steps t0) (Telemetry.steps t1);
  true

let prop_same_walk =
  QCheck.Test.make ~count:300 ~name:"slices walk as the reference walk does"
    (QCheck.make ~print:print_case gen_case)
    run_case

(* ------------------------------------------------------------------ *)
(* Major-heap words per visited instance                               *)
(* ------------------------------------------------------------------ *)

(* The backward slice of each program's last output, as a served slice
   request takes it, at a 16th of the timing scale on both tiers. The
   minor heap is emptied first, so the count is what the walk promotes
   plus what it allocates in the major heap directly. *)
let test_major_words () =
  List.iter
    (fun name ->
      let w1 = build_at ~div:16 name in
      List.iter
        (fun (tier, wet) ->
          let s = W.open_session wet in
          let c, i =
            List.concat_map
              (fun c ->
                List.init (W.node_of_copy wet c).W.n_nexec (fun i ->
                    (S.timestamp s c i, c, i)))
              (Query.copies_matching wet (function
                | Wet_ir.Instr.Output _ -> true
                | _ -> false))
            |> List.fold_left max (min_int, 0, 0)
            |> fun (_, c, i) -> (c, i)
          in
          (* a first walk mints the session's cursors *)
          ignore (Slice.Session.backward s c i);
          Gc.minor ();
          let _, _, major0 = Gc.counters () in
          let r = Slice.Session.backward s c i in
          let _, _, major1 = Gc.counters () in
          let per = (major1 -. major0) /. float_of_int r.Slice.instances in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: %.2f major words a visit (%d visits) <= 2"
               name tier per r.Slice.instances)
            true (per <= 2.0))
        [ ("tier-1", w1); ("tier-2", Builder.pack w1) ])
    [ "126.gcc"; "130.li"; "197.parser"; "255.vortex" ]

let () =
  Alcotest.run "slice"
    [
      ("walk", [ QCheck_alcotest.to_alcotest prop_same_walk ]);
      ( "memory",
        [ Alcotest.test_case "major words per visit" `Quick test_major_words ]
      );
    ]
