(* Persistence robustness: the sectioned container must detect every
   fault, attribute it to the right section, salvage what survives, and
   never crash or return garbage — exercised here with an exhaustive
   per-section corruption matrix and a seeded random-fault campaign. *)

module W = Wet_core.Wet
module Builder = Wet_core.Builder
module Query = Wet_core.Query
module Store = Wet_core.Store
module Container = Wet_core.Container
module Slice = Wet_core.Slice
module Faultsim = Wet_faultsim.Faultsim
module T = Wet_interp.Trace
module Interp = Wet_interp.Interp
module Spec = Wet_workloads.Spec
module Program = Wet_ir.Program
module Sizes = Wet_core.Sizes

(* ------------------------------------------------------------------ *)
(* Workloads: two programs with different shapes (recursion + arrays  *)
(* vs input-driven branching), both tiers each.                       *)
(* ------------------------------------------------------------------ *)

let programs =
  [
    ( "fib-array",
      {|
global arr[10];
fn fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fn main() {
  var i = 0;
  while (i < 10) { arr[i] = fib(i); i = i + 1; }
  var j = 0;
  while (j < 10) { print(arr[j]); j = j + 1; }
}
|},
      [||] );
    ( "input-driven",
      {|
global buf[16];
fn weigh(x, w) { return x * w + 1; }
fn main() {
  var i = 0;
  while (i < 16) {
    buf[i] = weigh(input(), i % 4);
    i = i + 1;
  }
  var best = -1000000;
  for (var j = 0; j < 16; j = j + 1) {
    if (buf[j] > best) { best = buf[j]; }
  }
  print(best);
}
|},
      Array.init 16 (fun i -> (i * 13) mod 29) );
  ]

let built =
  lazy
    (List.map
       (fun (name, src, input) ->
         let prog = Wet_minic.Frontend.compile_exn src in
         let tr = (Interp.run prog ~input).Interp.trace in
         let w1 = Builder.run_streaming ~program:prog ~input () in
         let w2 = Builder.pack w1 in
         (name, tr, w1, w2))
       programs)

let each_tier f =
  List.iter
    (fun (name, tr, w1, w2) ->
      f (name ^ "/tier1") tr w1;
      f (name ^ "/tier2") tr w2)
    (Lazy.force built)

let sections_of_bytes data =
  match Container.examine data with
  | Ok h -> h.Container.hl_sections
  | Error f -> Alcotest.failf "examine failed: %s" (Container.fault_message f)

let with_temp_file suffix f =
  let path = Filename.temp_file "wet_test" suffix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Control-flow fingerprint of a WET, read on a fresh session. *)
let cf_blocks wet =
  let out = ref [] in
  ignore
    (Query.Session.control_flow (W.open_session wet) Query.Forward
       ~f:(fun f b -> out := T.encode_block f b :: !out));
  Array.of_list (List.rev !out)

let load_values wet ~f = Query.Session.load_values (W.open_session wet) ~f

(* ------------------------------------------------------------------ *)
(* Round trip and determinism                                         *)
(* ------------------------------------------------------------------ *)

let test_round_trip () =
  each_tier (fun name tr wet ->
      with_temp_file ".wet" (fun path ->
          Store.save wet path;
          let loaded = Store.load path in
          if cf_blocks loaded <> tr.T.blocks then
            Alcotest.failf "%s: loaded WET control flow differs" name;
          let vals w =
            let acc = ref [] in
            ignore (load_values w ~f:(fun c v -> acc := (c, v) :: !acc));
            List.rev !acc
          in
          if vals loaded <> vals wet then
            Alcotest.failf "%s: loaded WET load values differ" name;
          Alcotest.(check (list string))
            (name ^ ": no damage") [] loaded.W.damage;
          Alcotest.(check (list string))
            (name ^ ": validates") [] (W.validate loaded)))

(* Save/load must be independent of query activity: cursors live in
   sessions, never in the container. *)
let test_deterministic_and_canonical () =
  each_tier (fun name _ wet ->
      with_temp_file ".wet" (fun path ->
          Store.save wet path;
          let first = read_file path in
          (* stir every cursor kind: control flow, values, deps *)
          let s = W.open_session wet in
          ignore
            (Query.Session.control_flow s Query.Forward ~f:(fun _ _ -> ()));
          ignore (Query.Session.load_values s ~f:(fun _ _ -> ()));
          ignore (Query.Session.addresses s ~f:(fun _ _ -> ()));
          Store.save wet path;
          if read_file path <> first then
            Alcotest.failf "%s: save not deterministic after queries" name;
          let loaded = Store.load path in
          ignore (cf_blocks loaded);
          Store.save loaded path;
          if read_file path <> first then
            Alcotest.failf "%s: save of loaded WET differs from original" name))

(* ------------------------------------------------------------------ *)
(* Structured rejection: garbage, legacy version, truncation          *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let expect_corrupt name thunk check =
  match thunk () with
  | _ -> Alcotest.failf "%s: expected Store.Corrupt" name
  | exception Store.Corrupt { fault; _ } -> check fault
  | exception e ->
    Alcotest.failf "%s: raw exception escaped: %s" name (Printexc.to_string e)

let test_rejects_garbage () =
  with_temp_file ".not_wet" (fun path ->
      write_file path "not a wet file at all";
      expect_corrupt "garbage"
        (fun () -> Store.load path)
        (function
          | Container.Not_wet -> ()
          | f -> Alcotest.failf "garbage: wrong fault %s"
                   (Container.fault_message f)))

(* Older containers are refused by version, strictly and when
   salvaging, with a message that says to rebuild: v1 is the old
   monolithic format, v4 the sectioned format whose streams still
   carried a default cursor, v5 the one whose packed streams still
   carried traversal counters, v6 the one that also stored what the
   loader derives, v7 the one that stored an equal sequence once per
   owner and the value patterns with the graph. *)
let test_rejects_legacy_v1 () =
  let _, _, _, w2 = List.hd (Lazy.force built) in
  let older v =
    let b = Bytes.of_string (Container.encode w2) in
    Bytes.set_int32_be b 8 (Int32.of_int v);
    Bytes.to_string b
  in
  List.iter
    (fun (v, data) ->
      with_temp_file ".wet" (fun path ->
          write_file path data;
          List.iter
            (fun salvage ->
              let name = Printf.sprintf "v%d (salvage=%b)" v salvage in
              expect_corrupt name
                (fun () -> Store.load ~salvage path)
                (function
                  | Container.Bad_version v' as f when v' = v ->
                    Alcotest.(check bool)
                      (name ^ ": message says to rebuild")
                      true
                      (contains (Container.fault_message f)
                         "rebuild with `wet build`")
                  | f ->
                    Alcotest.failf "%s: wrong fault %s" name
                      (Container.fault_message f)))
            [ false; true ]))
    [
      (* the old monolithic format: magic, big-endian version 1, blob *)
      (1, "WETOCaml\x00\x00\x00\x01leftover marshal bytes");
      (4, older 4);
      (5, older 5);
      (6, older 6);
      (7, older 7);
    ]

(* Truncate at every section boundary, at every header field edge, and
   inside the footer: always a structured error (or a clean salvage),
   never End_of_file or a Marshal failure. *)
let test_truncation_everywhere () =
  each_tier (fun name _ wet ->
      let data = Container.encode wet in
      let secs = sections_of_bytes data in
      let cuts =
        [ 0; 3; 8; 10; 12; 14; 17 ]
        @ List.concat_map
            (fun (s : Container.section_status) ->
              [ s.Container.sec_offset;
                s.Container.sec_offset + s.Container.sec_length;
                s.Container.sec_offset + (s.Container.sec_length / 2) ])
            secs
        @ [ String.length data - 4; String.length data - 1 ]
      in
      List.iter
        (fun cut ->
          let cut = min cut (String.length data - 1) in
          let mutilated = Faultsim.apply (Faultsim.Truncate_at cut) data in
          (match Container.decode mutilated with
           | Ok _ -> Alcotest.failf "%s: truncation at %d undetected" name cut
           | Error _ -> ()
           | exception e ->
             Alcotest.failf "%s: trunc at %d leaked %s" name cut
               (Printexc.to_string e));
          match Container.decode ~salvage:true mutilated with
          | Ok (w, _) ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s: salvage after trunc at %d validates" name cut)
              [] (W.validate w)
          | Error _ -> ()
          | exception e ->
            Alcotest.failf "%s: salvage trunc at %d leaked %s" name cut
              (Printexc.to_string e))
        cuts)

(* ------------------------------------------------------------------ *)
(* Per-section corruption matrix                                      *)
(* ------------------------------------------------------------------ *)

(* Flip one payload byte of each section in turn: strict load must name
   exactly that section; salvage must recover every other section. *)
let test_section_matrix () =
  each_tier (fun name tr wet ->
      let data = Container.encode wet in
      let secs = sections_of_bytes data in
      List.iter
        (fun (s : Container.section_status) ->
          let sec = s.Container.sec_name in
          let off = s.Container.sec_offset + (s.Container.sec_length / 2) in
          let mutilated =
            Faultsim.apply (Faultsim.Bit_flip { offset = off; bit = 5 }) data
          in
          (* strict: the right section is named *)
          (match Container.decode mutilated with
           | Ok _ -> Alcotest.failf "%s/%s: flip undetected" name sec
           | Error (Container.Bad_section { name = hit; _ }) ->
             Alcotest.(check string)
               (Printf.sprintf "%s: strict names the flipped section" name)
               sec hit
           | Error f ->
             Alcotest.failf "%s/%s: wrong fault %s" name sec
               (Container.fault_message f));
          (* salvage: required sections are fatal, the rest recover *)
          match Container.decode ~salvage:true mutilated with
          | Error f ->
            if not (Container.required sec) then
              Alcotest.failf "%s/%s: salvage refused: %s" name sec
                (Container.fault_message f)
          | Ok (w, _) ->
            if Container.required sec then
              Alcotest.failf "%s/%s: salvage loaded a required fault" name sec;
            Alcotest.(check (list string))
              (Printf.sprintf "%s/%s: damage recorded" name sec)
              [ sec ] w.W.damage;
            (* surviving sections still answer queries *)
            if sec <> "labels.ts" then begin
              if cf_blocks w <> tr.T.blocks then
                Alcotest.failf "%s/%s: salvaged control flow differs" name sec
            end
            else begin
              (match cf_blocks w with
               | _ -> Alcotest.failf "%s: lost ts must raise" name
               | exception W.Missing_stream m ->
                 Alcotest.(check string) "missing stream" "labels.ts" m)
            end;
            if sec <> "labels.values" then
              ignore (load_values w ~f:(fun _ _ -> ()))
            else begin
              match load_values w ~f:(fun _ _ -> ()) with
              | _ -> Alcotest.failf "%s: lost values must raise" name
              | exception W.Missing_stream m ->
                Alcotest.(check string) "missing stream" "labels.values" m
            end;
            (* the validator must accept what survived *)
            Alcotest.(check (list string))
              (Printf.sprintf "%s/%s: salvage validates" name sec)
              [] (W.validate w))
        secs)

(* A salvaged WET saved and re-loaded (strictly) keeps its damage
   record and still validates: honesty survives round trips. *)
let test_salvage_round_trip () =
  let _, _, _, w2 =
    List.find (fun (n, _, _, _) -> n = "fib-array") (Lazy.force built)
  in
  let data = Container.encode w2 in
  let secs = sections_of_bytes data in
  let s =
    List.find
      (fun (s : Container.section_status) ->
        s.Container.sec_name = "labels.values")
      secs
  in
  let mutilated =
    Faultsim.apply
      (Faultsim.Bit_flip { offset = s.Container.sec_offset + 1; bit = 0 })
      data
  in
  match Container.decode ~salvage:true mutilated with
  | Error f -> Alcotest.failf "salvage failed: %s" (Container.fault_message f)
  | Ok (w, _) ->
    with_temp_file ".wet" (fun path ->
        Store.save w path;
        let reloaded = Store.load path in
        Alcotest.(check (list string))
          "damage survives a save/load round trip" [ "labels.values" ]
          reloaded.W.damage;
        Alcotest.(check (list string)) "still validates" []
          (W.validate reloaded);
        match W.Session.value_of_copy (W.open_session reloaded) 0 0 with
        | _ -> Alcotest.fail "expected Missing_stream"
        | exception W.Missing_stream _ -> ()
        | exception Invalid_argument _ ->
          Alcotest.fail "expected Missing_stream")

(* ------------------------------------------------------------------ *)
(* Each fact stored once                                              *)
(* ------------------------------------------------------------------ *)

(* A fresh container holds exactly the six sections, in order: nothing
   the loader can derive is stored. *)
let test_six_sections () =
  each_tier (fun name _ wet ->
      Alcotest.(check (list string))
        (name ^ ": sections")
        [ "meta"; "program"; "graph.nodes"; "labels.ts"; "labels.values";
          "labels.deps" ]
        (List.map
           (fun (s : Container.section_status) -> s.Container.sec_name)
           (sections_of_bytes (Container.encode wet))))

(* Each stream class's bodies, one per owner: equal sequences of a
   class are one shared body, so a class holds as many physically
   distinct bodies as distinct contents. *)
let check_one_body_per_sequence name (w : W.t) =
  let sides side =
    let acc = ref [] in
    let add = function
      | W.Remote es ->
        List.iter (fun (e : W.edge) -> acc := side e.W.e_labels :: !acc) es
      | W.No_dep | W.Local _ -> ()
    in
    Array.iter (Array.iter add) w.W.node_cd;
    Array.iter (Array.iter add) w.W.copy_deps;
    !acc
  in
  let somes a = List.filter_map Fun.id (Array.to_list a) in
  List.iter
    (fun (kind, bodies) ->
      let distinct =
        List.fold_left
          (fun d b -> if List.memq b d then d else b :: d)
          [] bodies
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: %s bodies" name kind)
        (List.length
           (List.sort_uniq compare (List.map W.Stream.contents bodies)))
        (List.length distinct))
    [
      ("uvals", somes w.W.copy_uvals);
      ("pattern", List.concat_map somes (Array.to_list w.W.node_patterns));
      ("label.dst", sides (fun l -> l.W.l_dst));
      ("label.src", sides (fun l -> l.W.l_src));
    ]

(* The loader derives the analysis and the indexes with the builder's
   code: every bundled program at the golden scale (a 64th of its
   timing scale), on both tiers, decodes to a WET equal to the built
   one, measuring alike and no larger in memory, and both hold one body
   per distinct sequence of a class. *)
let test_derived_round_trip () =
  let words x = Obj.reachable_words (Obj.repr x) in
  List.iter
    (fun (spec : Spec.t) ->
      let scale = max 1 (spec.Spec.timing_scale / 64) in
      let w1 =
        Builder.run_streaming ~program:(Spec.compile spec)
          ~input:(Spec.input spec ~scale) ()
      in
      List.iter
        (fun (tier, w) ->
          let name = spec.Spec.name ^ "/" ^ tier in
          match Container.decode (Container.encode w) with
          | Error f ->
            Alcotest.failf "%s: %s" name (Container.fault_message f)
          | Ok (d, _) ->
            if d <> w then
              Alcotest.failf "%s: the decoded WET differs from the built one"
                name;
            check_one_body_per_sequence (name ^ " built") w;
            check_one_body_per_sequence (name ^ " decoded") d;
            Alcotest.(check bool) (name ^ ": sizes agree") true
              (Sizes.current d = Sizes.current w);
            if words d > words w then
              Alcotest.failf "%s: decoded %d words, built %d" name (words d)
                (words w))
        [ ("tier1", w1); ("tier2", Builder.pack w1) ])
    Spec.all

(* [wet]'s container with a bit flipped in the middle of section [sec],
   salvaged: the damage names [sec] alone. *)
let salvage_without name sec wet =
  let data = Container.encode wet in
  let s =
    List.find
      (fun (s : Container.section_status) -> s.Container.sec_name = sec)
      (sections_of_bytes data)
  in
  let mutilated =
    Faultsim.apply
      (Faultsim.Bit_flip
         { offset = s.Container.sec_offset + (s.Container.sec_length / 2);
           bit = 5 })
      data
  in
  match Container.decode ~salvage:true mutilated with
  | Error f ->
    Alcotest.failf "%s: salvage failed: %s" name (Container.fault_message f)
  | Ok (w, _) ->
    Alcotest.(check (list string)) (name ^ ": damage recorded") [ sec ]
      w.W.damage;
    w

(* [f ()] raises [Missing_stream sec]. *)
let raises name sec what f =
  match f () with
  | _ -> Alcotest.failf "%s: %s must raise" name what
  | exception W.Missing_stream m ->
    Alcotest.(check string) (name ^ ": " ^ what) sec m

(* Control sources are stored with the data dependences, so a WET that
   lost [labels.deps] cannot slice forward or resolve a control
   dependence: both name the lost section. *)
let test_lost_deps () =
  each_tier (fun name _ wet ->
      let s = W.open_session (salvage_without name "labels.deps" wet) in
      let raises = raises name "labels.deps" in
      raises "forward slice" (fun () -> ignore (Slice.Session.forward s 0 0));
      raises "resolve_cd" (fun () -> ignore (W.Session.resolve_cd s 0 0)))

(* The value patterns are stored with the unique values, so a WET that
   lost [labels.values] keeps no pattern: value and address traces name
   the lost section, while control flow and slices still answer. *)
let test_lost_values () =
  each_tier (fun name _ wet ->
      let w = salvage_without name "labels.values" wet in
      Alcotest.(check bool) (name ^ ": no pattern kept") true
        (Array.for_all (Array.for_all Option.is_none) w.W.node_patterns);
      let s = W.open_session w in
      let raises = raises name "labels.values" in
      let ignore_all _ _ = () in
      raises "value trace" (fun () ->
          Query.Session.load_values s ~f:ignore_all);
      raises "address trace" (fun () ->
          Query.Session.addresses s ~f:ignore_all);
      Alcotest.(check int) (name ^ ": control flow answers")
        w.W.stats.W.block_execs
        (Query.Session.control_flow s Query.Forward ~f:ignore_all);
      let sliced (r : Slice.result) = r.Slice.instances > 0 in
      Alcotest.(check bool) (name ^ ": slices answer") true
        (sliced (Slice.Session.backward s 0 0)
         && sliced (Slice.Session.forward s 0 0)))

(* Checksummed sections that disagree with each other are a [Malformed]
   container, strictly and when salvaging, and never an exception. *)
let test_inconsistent_sections () =
  let first_slot (w : W.t) f =
    let hit = ref false in
    let copy_deps =
      Array.map
        (Array.map (fun src ->
             if !hit then src
             else
               match f src with
               | Some src' ->
                 hit := true;
                 src'
               | None -> src))
        w.W.copy_deps
    in
    if not !hit then Alcotest.fail "no dependence slot to corrupt";
    { w with W.copy_deps }
  in
  each_tier (fun name _ wet ->
      let ncopies = W.num_copies wet in
      let p = wet.W.program in
      let defects =
        [
          ( "overlapping node copy ranges",
            {
              wet with
              W.nodes =
                Array.mapi
                  (fun i (n : W.node) ->
                    if i = 1 then { n with W.n_copy_base = n.W.n_copy_base - 1 }
                    else n)
                  wet.W.nodes;
            } );
          ( "an edge source past the copies",
            first_slot wet (function
              | W.Remote (e :: es) ->
                Some (W.Remote ({ e with W.e_src = ncopies } :: es))
              | _ -> None) );
          ( "a first node past the nodes",
            { wet with W.first_node = Array.length wet.W.nodes } );
          ( "a pattern table a row short",
            {
              wet with
              W.node_patterns =
                Array.sub wet.W.node_patterns 0
                  (Array.length wet.W.node_patterns - 1);
            } );
          ( "a local producer out of range",
            first_slot wet (function
              | W.Remote _ -> None
              | _ -> Some (W.Local ncopies)) );
          ( "a program that fails validation",
            {
              wet with
              W.program =
                Program.make
                  ~funcs:
                    (Array.map
                       (fun (f : Wet_ir.Func.t) -> { f with Wet_ir.Func.nregs = 0 })
                       p.Program.funcs)
                  ~main:p.Program.main ~mem_words:p.Program.mem_words
                  ~globals:p.Program.globals;
            } );
        ]
      in
      List.iter
        (fun (defect, bad) ->
          let data = Container.encode bad in
          List.iter
            (fun salvage ->
              let ctx = Printf.sprintf "%s, %s (salvage=%b)" name defect salvage in
              match Container.decode ~salvage data with
              | Error (Container.Malformed _) -> ()
              | Error f ->
                Alcotest.failf "%s: wrong fault %s" ctx (Container.fault_message f)
              | Ok _ -> Alcotest.failf "%s: loaded" ctx
              | exception e ->
                Alcotest.failf "%s: raised %s" ctx (Printexc.to_string e))
            [ false; true ])
        defects)

(* ------------------------------------------------------------------ *)
(* Atomic save                                                        *)
(* ------------------------------------------------------------------ *)

let test_atomic_save () =
  let _, tr, w1, w2 =
    List.find (fun (n, _, _, _) -> n = "fib-array") (Lazy.force built)
  in
  with_temp_file ".wet" (fun path ->
      Store.save w1 path;
      let before = read_file path in
      let total = String.length (Container.encode w2) in
      List.iter
        (fun k ->
          Store.crash_after := Some k;
          (match Store.save w2 path with
           | () -> Alcotest.failf "crash at %d not injected" k
           | exception Store.Crash_injected -> ());
          Alcotest.(check bool)
            (Printf.sprintf "file intact after crash at byte %d" k)
            true
            (read_file path = before))
        [ 0; 1; 17; total / 2; total - 1 ];
      (* hook disarmed after firing: the next save completes *)
      Store.save w2 path;
      let loaded = Store.load path in
      if cf_blocks loaded <> tr.T.blocks then
        Alcotest.fail "post-crash save loads wrong");
  (* sweep the leftover temp staging files out of the temp dir *)
  let dir = Filename.get_temp_dir_name () in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp"
         && String.length f > 9
         && String.sub f 0 9 = ".wet_test"
      then Sys.remove (Filename.concat dir f))
    (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* Seeded random-fault campaign                                       *)
(* ------------------------------------------------------------------ *)

(* >= 500 faults across both tiers and both workloads: every fault is
   either a byte-identical no-op, detected with a structured fault, or
   salvaged into a WET the validator accepts. Nothing else. *)
let test_campaign () =
  let per_wet = 150 in
  let total = ref 0 in
  each_tier (fun name _ wet ->
      let data = Container.encode wet in
      let faults =
        Faultsim.campaign
          ~seed:(Hashtbl.hash name)
          ~count:per_wet ~len:(String.length data)
      in
      List.iter
        (fun fault ->
          incr total;
          let mutilated = Faultsim.apply fault data in
          let ctx = Printf.sprintf "%s [%s]" name (Faultsim.describe fault) in
          (match Container.decode mutilated with
           | Ok _ ->
             if mutilated <> data then
               Alcotest.failf "%s: strict accepted corrupted bytes" ctx
           | Error _ -> ()
           | exception e ->
             Alcotest.failf "%s: strict leaked %s" ctx (Printexc.to_string e));
          match Container.decode ~salvage:true mutilated with
          | Ok (w, _) ->
            let errs = W.validate w in
            if errs <> [] then
              Alcotest.failf "%s: salvage produced invalid WET: %s" ctx
                (String.concat "; " errs)
          | Error _ -> ()
          | exception e ->
            Alcotest.failf "%s: salvage leaked %s" ctx (Printexc.to_string e))
        faults);
  if !total < 500 then Alcotest.failf "campaign too small: %d faults" !total

(* Fault specs round-trip, for `wet fsck --inject`. *)
let test_fault_specs () =
  List.iter
    (fun f ->
      match Faultsim.of_spec (Faultsim.to_spec f) with
      | Ok f' -> Alcotest.(check bool) (Faultsim.to_spec f) true (f = f')
      | Error m -> Alcotest.failf "spec round trip: %s" m)
    [
      Faultsim.Bit_flip { offset = 12; bit = 7 };
      Faultsim.Zero_range { offset = 0; len = 64 };
      Faultsim.Truncate_at 9;
    ];
  List.iter
    (fun s ->
      match Faultsim.of_spec s with
      | Ok _ -> Alcotest.failf "accepted bad spec %s" s
      | Error _ -> ())
    [ "flip:1"; "flip:1:9"; "zero:-1:2"; "trunc:x"; "smash:3" ]

let () =
  Alcotest.run "store"
    [
      ( "container",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "deterministic + canonical cursors" `Quick
            test_deterministic_and_canonical;
          Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
          Alcotest.test_case "rejects legacy v1" `Quick test_rejects_legacy_v1;
          Alcotest.test_case "truncation everywhere" `Quick
            test_truncation_everywhere;
          Alcotest.test_case "per-section corruption matrix" `Quick
            test_section_matrix;
          Alcotest.test_case "salvage round trip" `Quick
            test_salvage_round_trip;
          Alcotest.test_case "six sections" `Quick test_six_sections;
          Alcotest.test_case "derived indexes round-trip" `Quick
            test_derived_round_trip;
          Alcotest.test_case "lost labels.deps" `Quick test_lost_deps;
          Alcotest.test_case "lost labels.values" `Quick test_lost_values;
          Alcotest.test_case "inconsistent sections are malformed" `Quick
            test_inconsistent_sections;
          Alcotest.test_case "atomic save" `Quick test_atomic_save;
          Alcotest.test_case "fault campaign (600 seeded faults)" `Slow
            test_campaign;
          Alcotest.test_case "fault specs" `Quick test_fault_specs;
        ] );
    ]
