(* Shard-size equivalence: the sink must save byte-identical containers
   at every shard size, on both tiers — flush points are unobservable in
   the output. The reference here is a one-shard build, which flushes
   nothing before [finish]; test_core checks builds against the raw
   trace itself. *)

module W = Wet_core.Wet
module Builder = Wet_core.Builder
module Store = Wet_core.Store
module Interp = Wet_interp.Interp
module T = Wet_interp.Trace
module Spec = Wet_workloads.Spec

let programs =
  [
    (* recursive calls exercise the pending-call gating and the
       deferred return-value links *)
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
  @ (* a bundled benchmark for breadth: deep recursion at small scale *)
  (let spec = Spec.find "130.li" in
   [ ("130.li", Spec.compile spec, Spec.input spec ~scale:1) ])

let file_bytes path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Save both, compare bytes, clean up. *)
let saved_bytes wet =
  let path = Filename.temp_file "wet_streaming" ".wet" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.save wet path;
      file_bytes path)

let check_identical label reference streamed =
  let r = saved_bytes reference and s = saved_bytes streamed in
  Alcotest.(check bool) (label ^ ": containers byte-identical") true (r = s)

let one_shard prog input =
  Builder.run_streaming ~shard_events:max_int ~program:prog ~input ()

let test_equivalence () =
  List.iter
    (fun (name, prog, input) ->
      let w1 = one_shard prog input in
      let w2 = Builder.pack w1 in
      List.iter
        (fun shard_events ->
          let label = Printf.sprintf "%s shard=%d" name shard_events in
          let s1 = Builder.run_streaming ~shard_events ~program:prog ~input () in
          check_identical (label ^ " tier1") w1 s1;
          check_identical (label ^ " tier2") w2 (Builder.pack s1))
        [ 1; 7; 65536 ])
    workloads

(* Regression: a call whose result is discarded lowers to a dst-less
   [Instr.Call], which emits no [es_call], so no pending-call gate holds
   its position across the flush that [finish_path] can trigger at the
   call site — yet the callee's activation needs that position live as
   its calling context. A dense sweep of shard sizes lands boundaries on
   such calls; before the [pending_ctx] fix the build died with
   "live position already evicted". *)
let test_discarded_call_at_boundary () =
  let src =
    {|
global acc[4];
fn bump(i) { acc[i % 4] = acc[i % 4] + i; return i; }
fn main() {
  var i = 0;
  while (i < 40) { bump(i); i = i + 1; }
  var j = 0;
  while (j < 4) { print(acc[j]); j = j + 1; }
}
|}
  in
  let prog = Wet_minic.Frontend.compile_exn src in
  let w1 = one_shard prog [||] in
  for shard_events = 1 to 64 do
    let s1 = Builder.run_streaming ~shard_events ~program:prog ~input:[||] () in
    check_identical
      (Printf.sprintf "discarded-call shard=%d" shard_events)
      w1 s1
  done;
  (* the original field failure: 197.parser at scale 5, shard 100 *)
  let spec = Spec.find "197.parser" in
  let prog = Spec.compile spec and input = Spec.input spec ~scale:5 in
  let w1 = one_shard prog input in
  List.iter
    (fun shard_events ->
      let s1 = Builder.run_streaming ~shard_events ~program:prog ~input () in
      check_identical
        (Printf.sprintf "197.parser shard=%d" shard_events)
        w1 s1)
    [ 100; 101; 137 ]

(* Shard size far larger than the whole event stream: no shard is
   flushed before finish, and the result is still identical to a build
   at the default shard size. *)
let test_shard_larger_than_trace () =
  List.iter
    (fun (name, prog, input) ->
      let analysis = Wet_cfg.Program_analysis.of_program prog in
      let sink = Builder.Sink.create ~shard_events:max_int analysis in
      let _ =
        Interp.run_with_sink ~analysis ~sink:(Builder.Sink.events sink) prog
          ~input
      in
      Alcotest.(check int)
        (name ^ ": no shard flushed before finish")
        0
        (Builder.Sink.shard_count sink);
      let s1 = Builder.Sink.finish sink in
      check_identical (name ^ " oversized shard")
        (Builder.run_streaming ~program:prog ~input ())
        s1)
    workloads

(* A shard boundary landing exactly on the final event: the finishing
   drain sees an empty buffer. Driven through the explicit sink API so
   the flush point is under test control. *)
let test_empty_last_shard () =
  let name, prog, input = List.hd workloads in
  let w1 = one_shard prog input in
  let trace = (Interp.run prog ~input).Interp.trace in
  let total_events =
    trace.T.nstmts + Array.length trace.T.deps
    + Array.length trace.T.cd_producer
    + Array.length trace.T.paths
  in
  let analysis = trace.T.analysis in
  let sink = Builder.Sink.create ~shard_events:total_events analysis in
  let _outputs, _stmts =
    Interp.run_with_sink ~analysis ~sink:(Builder.Sink.events sink) prog ~input
  in
  let s1 = Builder.Sink.finish sink in
  check_identical (name ^ " empty last shard") w1 s1

(* Explicit flush_shard calls sprinkled between events must also be
   unobservable: flush after every path execution. *)
let test_explicit_flush () =
  let name, prog, input = List.nth workloads 1 in
  let w1 = one_shard prog input in
  let sink = Builder.Sink.create ~shard_events:max_int (Wet_cfg.Program_analysis.of_program prog) in
  let es = Builder.Sink.events sink in
  let es' =
    {
      es with
      Interp.es_path =
        (fun key ->
          es.Interp.es_path key;
          Builder.Sink.flush_shard sink);
    }
  in
  let _ = Interp.run_with_sink ~sink:es' prog ~input in
  let s1 = Builder.Sink.finish sink in
  check_identical (name ^ " explicit flush") w1 s1;
  Alcotest.(check bool) "many shards" true (Builder.Sink.shard_count sink > 2)

let test_shard_count_and_peak () =
  let _, prog, input = List.hd workloads in
  let analysis = Wet_cfg.Program_analysis.of_program prog in
  let sink =
    Builder.Sink.create ~shard_events:64 ~track_peak:true analysis
  in
  let _ =
    Interp.run_with_sink ~analysis ~sink:(Builder.Sink.events sink) prog ~input
  in
  let _wet = Builder.Sink.finish sink in
  Alcotest.(check bool) "shards counted" true
    (Builder.Sink.shard_count sink >= 2);
  Alcotest.(check bool) "peak sampled" true
    (Builder.Sink.peak_live_words sink > 0);
  (* untracked sink reports 0 *)
  let sink2 = Builder.Sink.create analysis in
  let _ =
    Interp.run_with_sink ~analysis ~sink:(Builder.Sink.events sink2) prog
      ~input
  in
  let _ = Builder.Sink.finish sink2 in
  Alcotest.(check int) "peak off by default" 0
    (Builder.Sink.peak_live_words sink2)

let test_feed_after_finish () =
  let _, prog, input = List.hd workloads in
  let analysis = Wet_cfg.Program_analysis.of_program prog in
  let sink = Builder.Sink.create analysis in
  let _ =
    Interp.run_with_sink ~analysis ~sink:(Builder.Sink.events sink) prog ~input
  in
  let _ = Builder.Sink.finish sink in
  Alcotest.check_raises "feed after finish"
    (Wet_error.Error { Wet_error.stage = Wet_error.Build; msg = "feed after finish" })
    (fun () -> (Builder.Sink.events sink).Interp.es_stmt 0);
  Alcotest.check_raises "double finish"
    (Wet_error.Error
       { Wet_error.stage = Wet_error.Build; msg = "finish after finish" })
    (fun () -> ignore (Builder.Sink.finish sink))

(* Golden tier-2 containers. Both sides of the equivalence tests above
   call the same [Builder.pack], so a change in how streams are built or
   selected cannot show there. These digests pin the packed bytes of
   every bundled program, built at a 64th of its timing scale through
   the streaming sink. They come from an independent implementation of
   construction and selection (fill FR, then walk the cursor back; every
   trial builds its stream), so a faster one must reproduce them. They
   were re-pinned three times: when format v5 stopped marshalling a
   default cursor with each stream and when format v6 stopped
   marshalling a packed stream's traversal counters, every stream's
   method, size, length and contents were checked unchanged; when
   format v7 stopped storing what it can derive, the v6 and v7
   containers of all nine programs, both tiers, were checked to decode
   to equal WETs with byte-identical [program], [labels.ts] and
   [labels.values] sections. *)
let golden_tier2 =
  [
    ("099.go", "d2d3469d6dcc6763c1dcdd29807e0b5c");
    ("126.gcc", "603cabf162e08d523739ffe5433681a9");
    ("130.li", "a33488cfad579787bfa670348fd835a6");
    ("164.gzip", "a16684a0aaf71a9d43674d81066ad4d9");
    ("181.mcf", "ebbbf90097cfd8ab5d879d5ded8a263f");
    ("197.parser", "07bf73c9416d9273eaece2f506cdcd4c");
    ("255.vortex", "2185ebc4c707a5cdbc7b2dd9a8c3dc3a");
    ("256.bzip2", "95bdbd8944f75ec7abfbe24eb380f7f2");
    ("300.twolf", "665ddf432eb23bdce0f9a205abd422c7");
  ]

let test_golden_tier2 () =
  Alcotest.(check (list string))
    "every bundled program has a digest"
    (List.map (fun (s : Spec.t) -> s.Spec.name) Spec.all)
    (List.map fst golden_tier2);
  List.iter
    (fun (name, digest) ->
      let spec = Spec.find name in
      let scale = max 1 (spec.Spec.timing_scale / 64) in
      let wet =
        Builder.run_streaming ~program:(Spec.compile spec)
          ~input:(Spec.input spec ~scale) ()
      in
      let bytes = Wet_core.Container.encode (Builder.pack wet) in
      Alcotest.(check string)
        (name ^ " tier-2 container digest")
        digest
        (Digest.to_hex (Digest.string bytes)))
    golden_tier2

let () =
  Alcotest.run "streaming"
    [
      ( "equivalence",
        [
          Alcotest.test_case "byte-identical across shard sizes" `Quick
            test_equivalence;
          Alcotest.test_case "discarded call at shard boundary" `Quick
            test_discarded_call_at_boundary;
          Alcotest.test_case "shard larger than trace" `Quick
            test_shard_larger_than_trace;
          Alcotest.test_case "empty last shard" `Quick test_empty_last_shard;
          Alcotest.test_case "explicit flush per path" `Quick
            test_explicit_flush;
          Alcotest.test_case "golden tier-2 digests" `Quick test_golden_tier2;
        ] );
      ( "sink",
        [
          Alcotest.test_case "shard count and peak tracking" `Quick
            test_shard_count_and_peak;
          Alcotest.test_case "misuse raises Wet_error" `Quick
            test_feed_after_finish;
        ] );
    ]
