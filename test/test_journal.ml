(* Durable builds: the checkpoint journal, the kill-campaign harness,
   and the headline invariant — a checkpointed build killed at ANY
   point (torn final record included) and resumed finishes with a
   container byte-identical to an uninterrupted build, on both tiers. *)

module W = Wet_core.Wet
module Builder = Wet_core.Builder
module Checkpoint = Wet_core.Builder.Checkpoint
module Store = Wet_core.Store
module Journal = Wet_journal.Journal
module Faultsim = Wet_faultsim.Faultsim
module Interp = Wet_interp.Interp
module Spec = Wet_workloads.Spec

let programs =
  [
    (* recursive calls: pending-call LIFO crosses checkpoint boundaries *)
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
  var j = 0;
  while (j < 16) { print(buf[j]); j = j + 1; }
}
|},
      Array.init 16 (fun i -> (i * 13) mod 31) );
  ]

let workloads =
  List.map
    (fun (name, src, input) ->
      (name, Wet_minic.Frontend.compile_exn src, input))
    programs

let with_tmp_dir f =
  let dir = Filename.temp_file "wet_journal" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let disarm_kills () =
  Journal.kill_after_records := None;
  Journal.kill_after_bytes := None

let file_bytes path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let saved_bytes wet =
  let path = Filename.temp_file "wet_journal" ".wet" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save wet path;
      file_bytes path)

(* ---------------- journal framing ---------------- *)

let test_round_trip () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "a.j" in
  let w = Journal.create path in
  Journal.append w ~tag:0 "header payload";
  Journal.append w ~tag:1 "";
  Journal.append w ~tag:255 (String.make 10_000 'x');
  Journal.close w;
  match Journal.read path with
  | Error m -> Alcotest.fail m
  | Ok scan ->
    Alcotest.(check bool) "not torn" false scan.Journal.torn;
    Alcotest.(check int) "record count" 3 (List.length scan.Journal.records);
    Alcotest.(check (list int)) "tags" [ 0; 1; 255 ]
      (List.map (fun r -> r.Journal.tag) scan.Journal.records);
    Alcotest.(check string) "payload 0" "header payload"
      (List.hd scan.Journal.records).Journal.payload;
    Alcotest.(check int) "intact covers file" (String.length (file_bytes path))
      scan.Journal.intact_bytes

let test_torn_tail_and_reopen () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "torn.j" in
  let w = Journal.create path in
  Journal.append w ~tag:0 "keep me";
  Journal.append w ~tag:1 "about to be torn";
  Journal.close w;
  let data = file_bytes path in
  (* rip 5 bytes off the final record: partial payload, CRC can't match *)
  let oc = open_out_bin path in
  output_string oc (String.sub data 0 (String.length data - 5));
  close_out oc;
  let scan =
    match Journal.read path with Ok s -> s | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "torn detected" true scan.Journal.torn;
  Alcotest.(check int) "only the intact prefix" 1
    (List.length scan.Journal.records);
  (* reopen discards the torn tail; appends land clean *)
  let w = Journal.reopen path ~at:scan.Journal.intact_bytes in
  Journal.append w ~tag:2 "after recovery";
  Journal.close w;
  (match Journal.read path with
   | Ok s ->
     Alcotest.(check bool) "clean after reopen" false s.Journal.torn;
     Alcotest.(check (list int)) "records" [ 0; 2 ]
       (List.map (fun r -> r.Journal.tag) s.Journal.records)
   | Error m -> Alcotest.fail m);
  (* corrupt a payload byte of the (now) last record: CRC must flag it *)
  let data = file_bytes path in
  let b = Bytes.of_string data in
  let last = Bytes.length b - 3 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  match Journal.read path with
  | Ok s ->
    Alcotest.(check bool) "crc mismatch is torn" true s.Journal.torn;
    Alcotest.(check int) "bad record dropped" 1 (List.length s.Journal.records)
  | Error m -> Alcotest.fail m

let test_read_errors () =
  (match Journal.read "/nonexistent/wet.j" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing file must be Error");
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "alien" in
  let oc = open_out_bin path in
  output_string oc "definitely not a journal";
  close_out oc;
  match Journal.read path with
  | Error m -> Alcotest.(check bool) "mentions magic" true (contains m "magic")
  | Ok _ -> Alcotest.fail "bad magic must be Error"

(* ---------------- kill hooks ---------------- *)

let test_kill_hooks () =
  with_tmp_dir @@ fun dir ->
  Fun.protect ~finally:disarm_kills @@ fun () ->
  let path = Filename.concat dir "k.j" in
  (* record kill: n-th append completes durably, then the process dies *)
  let w = Journal.create path in
  Journal.kill_after_records := Some 2;
  Journal.append w ~tag:0 "one";
  (try
     Journal.append w ~tag:0 "two";
     Alcotest.fail "append 2 should have killed"
   with Journal.Kill_injected -> ());
  Journal.close w;
  (match Journal.read path with
   | Ok s ->
     Alcotest.(check int) "both records durable" 2
       (List.length s.Journal.records);
     Alcotest.(check bool) "not torn" false s.Journal.torn
   | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "hook disarmed" true (!Journal.kill_after_records = None);
  (* Some 0 dies before writing anything *)
  let w = Journal.reopen path ~at:(String.length (file_bytes path)) in
  Journal.kill_after_records := Some 0;
  (try
     Journal.append w ~tag:0 "never lands";
     Alcotest.fail "Some 0 should kill pre-write"
   with Journal.Kill_injected -> ());
  Journal.close w;
  (match Journal.read path with
   | Ok s -> Alcotest.(check int) "still 2" 2 (List.length s.Journal.records)
   | Error m -> Alcotest.fail m);
  (* byte kill: the crossing write leaves a genuinely torn, durable tail *)
  let path2 = Filename.concat dir "kb.j" in
  let w = Journal.create path2 in
  Journal.append w ~tag:0 "intact first record";
  let before = String.length (file_bytes path2) in
  Journal.kill_after_bytes := Some 4;
  (try
     Journal.append w ~tag:1 "this one tears";
     Alcotest.fail "byte kill should fire"
   with Journal.Kill_injected -> ());
  Journal.close w;
  Alcotest.(check int) "exactly 4 torn bytes on disk" (before + 4)
    (String.length (file_bytes path2));
  match Journal.read path2 with
  | Ok s ->
    Alcotest.(check bool) "torn" true s.Journal.torn;
    Alcotest.(check int) "prefix intact" 1 (List.length s.Journal.records);
    Alcotest.(check int) "intact_bytes at tear" before s.Journal.intact_bytes
  | Error m -> Alcotest.fail m

(* ---------------- kill specs ---------------- *)

let test_kill_specs () =
  List.iter
    (fun (spec, kill) ->
      Alcotest.(check string) ("to_spec " ^ spec) spec
        (Faultsim.kill_to_spec kill);
      match Faultsim.kill_of_spec spec with
      | Ok k -> Alcotest.(check bool) ("of_spec " ^ spec) true (k = kill)
      | Error m -> Alcotest.fail m)
    [
      ("kill:shard:0", Faultsim.Kill_at_shard 0);
      ("kill:shard:7", Faultsim.Kill_at_shard 7);
      ("kill:byte:12345", Faultsim.Kill_at_byte 12345);
    ];
  List.iter
    (fun bad ->
      match Faultsim.kill_of_spec bad with
      | Ok _ -> Alcotest.fail (bad ^ " should not parse")
      | Error _ -> ())
    [ "kill:shard:-1"; "kill:shard:x"; "kill:7"; "shard:7"; "kill:byte" ];
  (* campaigns are reproducible from the seed *)
  let c1 = Faultsim.kill_campaign ~seed:42 ~count:16 ~shards:9 ~bytes:4096 in
  let c2 = Faultsim.kill_campaign ~seed:42 ~count:16 ~shards:9 ~bytes:4096 in
  Alcotest.(check bool) "campaign reproducible" true (c1 = c2);
  Alcotest.(check int) "campaign count" 16 (List.length c1)

let prop_kill_spec_round_trip =
  QCheck.Test.make ~name:"kill specs round-trip" ~count:200
    QCheck.(pair bool small_nat)
    (fun (shard, n) ->
      let k =
        if shard then Faultsim.Kill_at_shard n else Faultsim.Kill_at_byte n
      in
      Faultsim.kill_of_spec (Faultsim.kill_to_spec k) = Ok k)

(* ---------------- fast-forward ---------------- *)

let test_fast_forward () =
  let log = ref [] in
  let push x = log := x :: !log in
  let base =
    {
      Interp.es_block = (fun cd -> push (`B cd));
      es_dep = (fun p -> push (`D p));
      es_stmt = (fun v -> push (`S v));
      es_path = (fun k -> push (`P k));
      es_call = (fun () -> push `C);
      es_ret = (fun v p -> push (`R (v, p)));
      es_live = (fun _ -> push `L);
    }
  in
  let caught = ref 0 in
  (* the first five events are dropped, whatever their kinds *)
  let ff = Interp.fast_forward ~on_caught_up:(fun () -> incr caught) 5 base in
  ff.Interp.es_live (fun _ -> ());  (* always forwarded, never counted *)
  ff.Interp.es_stmt 10;             (* suppressed (1/5) *)
  ff.Interp.es_block 5;             (* suppressed (2/5) *)
  ff.Interp.es_call ();             (* suppressed (3/5) *)
  ff.Interp.es_stmt 11;             (* suppressed (4/5) *)
  Alcotest.(check int) "not yet caught up" 0 !caught;
  ff.Interp.es_path 99;             (* suppressed (5/5) -> caught up *)
  Alcotest.(check int) "caught up fires once" 1 !caught;
  ff.Interp.es_stmt 12;             (* forwarded *)
  ff.Interp.es_ret 7 3;             (* forwarded: ret for a dropped call *)
  ff.Interp.es_dep 4;               (* forwarded *)
  ff.Interp.es_call ();             (* forwarded *)
  ff.Interp.es_path 100;
  Alcotest.(check int) "still once" 1 !caught;
  Alcotest.(check bool) "post-watermark events forwarded in order" true
    (List.rev !log = [ `L; `S 12; `R (7, 3); `D 4; `C; `P 100 ]);
  (* a zero watermark signals immediately and suppresses nothing *)
  let caught0 = ref 0 in
  let ff0 =
    Interp.fast_forward ~on_caught_up:(fun () -> incr caught0) 0 base
  in
  Alcotest.(check int) "zero watermark is immediate" 1 !caught0;
  Alcotest.(check bool) "zero watermark wraps nothing" true (ff0 == base)

(* ---------------- crash recovery ---------------- *)

let shard_events = 512

(* An uninterrupted checkpointed build: the reference container bytes
   and the journal's shard count. *)
let clean_build dir name prog input =
  let journal = Filename.concat dir (name ^ ".clean.j") in
  let wet =
    Checkpoint.build ~shard_events ~journal ~program:prog ~input ()
  in
  let shards =
    match Journal.read journal with
    | Ok scan -> List.length scan.Journal.records - 1 (* minus header *)
    | Error m -> Alcotest.fail m
  in
  (saved_bytes wet, saved_bytes (Builder.pack wet), shards)

let kill_and_resume dir name prog input ~arm =
  Fun.protect ~finally:disarm_kills @@ fun () ->
  let journal = Filename.concat dir (name ^ ".kill.j") in
  (match
     Checkpoint.build ~shard_events
       ~on_header_written:arm ~journal ~program:prog ~input ()
   with
  | _wet -> Alcotest.fail (name ^ ": kill did not fire")
  | exception Journal.Kill_injected -> ());
  let r = Checkpoint.resume ~journal () in
  (saved_bytes r.Checkpoint.r_wet,
   saved_bytes (Builder.pack r.Checkpoint.r_wet),
   r)

(* The tentpole invariant: kill at EVERY shard boundary, resume, and
   the container is byte-identical on both tiers — for each workload. *)
let test_kill_at_every_shard_boundary () =
  with_tmp_dir @@ fun dir ->
  List.iter
    (fun (name, prog, input) ->
      let t1, t2, shards = clean_build dir name prog input in
      Alcotest.(check bool) (name ^ ": multiple shards") true (shards >= 2);
      for k = 0 to shards do
        let rt1, rt2, r =
          kill_and_resume dir name prog input ~arm:(fun () ->
              Journal.kill_after_records := Some k)
        in
        let label = Printf.sprintf "%s kill:shard:%d" name k in
        Alcotest.(check bool) (label ^ " tier1 identical") true (rt1 = t1);
        Alcotest.(check bool) (label ^ " tier2 identical") true (rt2 = t2);
        Alcotest.(check int) (label ^ " replayed") k
          r.Checkpoint.r_replayed_shards;
        Alcotest.(check bool) (label ^ " no torn tail") false
          r.Checkpoint.r_torn_tail
      done)
    workloads

(* Torn final record: a byte-budget kill lands mid-record; recovery must
   detect the tear, truncate it, and restore the previous checkpoint —
   never trust the torn bytes. *)
let test_torn_final_record_replayed () =
  with_tmp_dir @@ fun dir ->
  let name, prog, input = List.hd workloads in
  let t1, t2, _ = clean_build dir name prog input in
  (* a full clean journal tells us where records land; the kill budget
     is relative to the checkpoint stream (armed after the header), so
     subtract the magic and the header record *)
  let probe = Filename.concat dir (name ^ ".clean.j") in
  let total = String.length (file_bytes probe) in
  let header_end =
    match Journal.read probe with
    | Ok { Journal.records = hd :: _; _ } ->
      8 + 9 + String.length hd.Journal.payload
    | _ -> Alcotest.fail "clean journal lost its header"
  in
  (* kill 10 bytes shy of the journal's full extent: inside the last
     record's frame for any realistically-sized checkpoint *)
  let rt1, rt2, r =
    kill_and_resume dir name prog input ~arm:(fun () ->
        Journal.kill_after_bytes := Some (total - header_end - 10))
  in
  Alcotest.(check bool) "torn tail detected" true r.Checkpoint.r_torn_tail;
  Alcotest.(check bool) "tier1 identical after torn resume" true (rt1 = t1);
  Alcotest.(check bool) "tier2 identical after torn resume" true (rt2 = t2)

let prop_kill_at_random_byte =
  QCheck.Test.make ~name:"resume after a random byte-offset kill" ~count:8
    QCheck.(small_nat)
    (fun seed ->
      with_tmp_dir @@ fun dir ->
      let name, prog, input = List.nth workloads (seed mod 2) in
      let t1, _, _ = clean_build dir name prog input in
      let probe = Filename.concat dir (name ^ ".clean.j") in
      let total = String.length (file_bytes probe) in
      let header_end =
        match Journal.read probe with
        | Ok { Journal.records = hd :: _; _ } ->
          8 + 9 + String.length hd.Journal.payload
        | _ -> Alcotest.fail "clean journal lost its header"
      in
      (* anywhere in the checkpoint stream: [1, stream extent - 1] so
         the kill always fires before the build completes *)
      let stream = total - header_end in
      let rng = Wet_util.Prng.create seed in
      let kill =
        match Faultsim.random_kill rng ~shards:1 ~bytes:(stream - 1) with
        | Faultsim.Kill_at_byte b -> 1 + b
        | Faultsim.Kill_at_shard _ -> 1 + Wet_util.Prng.int rng (stream - 1)
      in
      let rt1, _, _ =
        kill_and_resume dir name prog input ~arm:(fun () ->
            Journal.kill_after_bytes := Some kill)
      in
      rt1 = t1)

(* A build killed before its first checkpoint leaves a header-only
   journal; resume is a fresh (but still correct) rebuild. A journal
   with no intact header cannot be resumed. *)
let test_header_only_and_headerless () =
  with_tmp_dir @@ fun dir ->
  let name, prog, input = List.hd workloads in
  let t1, _, _ = clean_build dir name prog input in
  let rt1, _, r =
    kill_and_resume dir name prog input ~arm:(fun () ->
        Journal.kill_after_records := Some 0)
  in
  Alcotest.(check int) "nothing replayed" 0 r.Checkpoint.r_replayed_shards;
  Alcotest.(check bool) "fresh rebuild identical" true (rt1 = t1);
  let empty = Filename.concat dir "headerless.j" in
  Journal.close (Journal.create empty);
  match Checkpoint.resume ~journal:empty () with
  | _ -> Alcotest.fail "headerless resume must fail"
  | exception Wet_error.Error { Wet_error.stage = Wet_error.Journal; _ } -> ()

(* A journal whose header names another layout is refused before
   anything is unmarshalled, and before the file is reopened: one
   written the way journals were before they named their layout (a
   bare Marshal of the header, then one checkpoint), and one naming
   another layout string. *)
let test_other_layout_refused () =
  with_tmp_dir @@ fun dir ->
  let name, prog, input = List.hd workloads in
  let _ = clean_build dir name prog input in
  let clean = Filename.concat dir (name ^ ".clean.j") in
  (* the clean header record's Marshal bytes, after its layout line *)
  let header, ckpt =
    match Journal.read clean with
    | Ok { Journal.records = hd :: ck :: _; _ } ->
      let p = hd.Journal.payload in
      let body = String.index p '\n' + 1 in
      (String.sub p body (String.length p - body), ck.Journal.payload)
    | _ -> Alcotest.fail "clean journal lost its header or first checkpoint"
  in
  List.iter
    (fun (file, header_payload, named) ->
      let path = Filename.concat dir file in
      let w = Journal.create path in
      Journal.append w ~tag:0 header_payload;
      Journal.append w ~tag:1 ckpt;
      Journal.close w;
      let before = file_bytes path in
      let names_both m =
        contains m ("journal layout " ^ named)
        && contains m "reads wet-journal-layout/" && contains m "rebuild"
        && not (contains m "no intact header record")
      in
      (match Checkpoint.resume ~journal:path () with
       | _ -> Alcotest.failf "%s: a journal of another layout was resumed" file
       | exception Wet_error.Error { Wet_error.stage = Wet_error.Journal; msg }
         ->
         Alcotest.(check bool) ("resume names both layouts: " ^ msg) true
           (names_both msg));
      Alcotest.(check bool) (file ^ ": the refused journal is unchanged") true
        (file_bytes path = before))
    [
      ("unnamed.j", header, "none");
      ("other.j", "wet-journal-layout/1\n" ^ header, "wet-journal-layout/1");
    ]

(* Journals are byte-identical across runs, so one digest pins the
   marshalled layout of [header] and [Sink.state] (a checkpoint
   record's payload is the sink's snapshot). A change to either fails
   here until [Checkpoint]'s layout string is bumped (so older journals
   are refused, not misread) and the digest below is re-recorded. *)
let golden_journal_md5 = "c490ce78eb8388d9b13627f14468de8d"

let test_golden_journal_digest () =
  with_tmp_dir @@ fun dir ->
  let spec = Spec.find "parser" in
  let journal = Filename.concat dir "parser.j" in
  ignore
    (Checkpoint.build ~shard_events:64 ~label:"parser" ~journal
       ~program:(Spec.compile spec) ~input:(Spec.input spec ~scale:1) ());
  Alcotest.(check string) "journal digest" golden_journal_md5
    (Digest.to_hex (Digest.file journal))

(* ---------------- orphaned save temps ---------------- *)

let test_orphan_sweep () =
  with_tmp_dir @@ fun dir ->
  let target = Filename.concat dir "out.wet" in
  let mk name =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc "junk";
    close_out oc
  in
  mk ".out.wet.a1b2.tmp";
  mk ".out.wet.ZZ.tmp";
  mk ".other.wet.a1b2.tmp";  (* different target: not ours *)
  mk "out.wet.tmp";          (* missing "." frame: not a save temp *)
  mk ".out.wet.tmp";         (* missing random infix: not a save temp *)
  let orphans = Store.orphan_temps target in
  Alcotest.(check (list string)) "exactly the stranded temps"
    [ Filename.concat dir ".out.wet.ZZ.tmp";
      Filename.concat dir ".out.wet.a1b2.tmp" ]
    orphans;
  let removed = Store.remove_orphans target in
  Alcotest.(check int) "both removed" 2 (List.length removed);
  Alcotest.(check (list string)) "sweep now clean" []
    (Store.orphan_temps target);
  Alcotest.(check bool) "unrelated file untouched" true
    (Sys.file_exists (Filename.concat dir ".other.wet.a1b2.tmp"))

(* A real crashed save strands a temp the sweep finds. *)
let test_orphan_from_crashed_save () =
  with_tmp_dir @@ fun dir ->
  let _, prog, input = List.hd workloads in
  let wet = Builder.run_streaming ~program:prog ~input () in
  let target = Filename.concat dir "crash.wet" in
  Store.crash_after := Some 64;
  (try
     Store.save wet target;
     Alcotest.fail "crash hook did not fire"
   with Store.Crash_injected -> ());
  Alcotest.(check bool) "destination never appeared" false
    (Sys.file_exists target);
  Alcotest.(check int) "one orphan stranded" 1
    (List.length (Store.orphan_temps target));
  ignore (Store.remove_orphans target);
  Alcotest.(check (list string)) "gc leaves nothing" []
    (Store.orphan_temps target)

let () =
  Alcotest.run "journal"
    [
      ( "framing",
        [
          Alcotest.test_case "append/read round-trip" `Quick test_round_trip;
          Alcotest.test_case "torn tail detected; reopen truncates" `Quick
            test_torn_tail_and_reopen;
          Alcotest.test_case "unreadable and alien files" `Quick
            test_read_errors;
        ] );
      ( "kills",
        [
          Alcotest.test_case "record and byte kill hooks" `Quick
            test_kill_hooks;
          Alcotest.test_case "kill specs parse and print" `Quick
            test_kill_specs;
          QCheck_alcotest.to_alcotest prop_kill_spec_round_trip;
        ] );
      ( "fast-forward",
        [ Alcotest.test_case "suppression and catch-up" `Quick
            test_fast_forward ] );
      ( "recovery",
        [
          Alcotest.test_case "kill at every shard boundary, both tiers"
            `Quick test_kill_at_every_shard_boundary;
          Alcotest.test_case "torn final record replayed, not trusted"
            `Quick test_torn_final_record_replayed;
          QCheck_alcotest.to_alcotest prop_kill_at_random_byte;
          Alcotest.test_case "header-only and headerless journals" `Quick
            test_header_only_and_headerless;
          Alcotest.test_case "a journal of another layout is refused" `Quick
            test_other_layout_refused;
          Alcotest.test_case "golden journal digest" `Quick
            test_golden_journal_digest;
        ] );
      ( "orphans",
        [
          Alcotest.test_case "sweep matches exactly and gc removes" `Quick
            test_orphan_sweep;
          Alcotest.test_case "crashed save strands a sweepable temp" `Quick
            test_orphan_from_crashed_save;
        ] );
    ]
