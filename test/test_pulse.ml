(* Live observation and the one metric registry: the QCheck law that
   any split of a recorded workload across worker domains lands in the
   registry exactly as a single-threaded replay does, gauge last-write
   resolution, kind mismatches across domains, the daemon's ring
   (wraparound and drop accounting, including under concurrent pushes
   from two domains), the span sink with buffering off as the daemon
   runs it, watch matches kept in their probe's own ring, and the
   progress reporter's heartbeat output. *)

module Obs = Wet_obs.Metrics
module Sink = Wet_obs.Sink
module Span = Wet_obs.Span
module Ring = Wet_serve.Ring
module Reporter = Wet_obs.Reporter
module Watch = Wet_watch.Watch
module F = Wet_watch.Filter
module E = Wet_watch.Event
module Json = Wet_insight.Json
module Wl = Wet_workloads.Spec

let with_sink f =
  Sink.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Sink.disable ()) f

(* ------------------------------------------------------------------ *)
(* One registry across domains                                         *)
(* ------------------------------------------------------------------ *)

(* One recorded operation: (kind, instrument, value). The name embeds
   the kind, so a generated workload can never trip the kind-mismatch
   error — that path has its own test below. *)
let apply (kind, name_i, v) =
  match kind mod 3 with
  | 0 -> Obs.add (Obs.counter (Printf.sprintf "split.c%d" name_i)) v
  | 1 -> Obs.set (Obs.gauge (Printf.sprintf "split.g%d" name_i)) v
  | _ -> Obs.observe (Obs.histogram (Printf.sprintf "split.h%d" name_i)) v

let split_readings () =
  List.filter
    (fun (name, _) -> String.starts_with ~prefix:"split." name)
    (Obs.snapshot ())

(* Replaying a workload on one thread must equal replaying it split
   across [k] domains running at once, each op recorded by the domain it
   is assigned to. Counter and histogram ops go to a random domain; a
   gauge's writes all go to one domain, so they stay sequential and the
   gauge reads its last write. *)
let prop_merge_equivalence =
  QCheck.Test.make ~name:"partitioned locals merge to single-registry result"
    ~count:300
    QCheck.(
      pair (int_range 1 4)
        (small_list
           (quad (int_bound 2) (int_bound 2) (int_range (-50) 2000)
              small_nat)))
    (fun (k, ops) ->
      with_sink (fun () ->
          List.iter (fun (kind, n, v, _) -> apply (kind, n, v)) ops;
          let want = split_readings () in
          Obs.reset ();
          let domain_of (kind, n, _, part) =
            if kind mod 3 = 1 then n mod k else part mod k
          in
          let workers =
            List.init k (fun d ->
                let mine = List.filter (fun op -> domain_of op = d) ops in
                Domain.spawn (fun () ->
                    List.iter (fun (kind, n, v, _) -> apply (kind, n, v)) mine))
          in
          List.iter Domain.join workers;
          split_readings () = want))

let test_gauge_last_write () =
  with_sink (fun () ->
      let g = Obs.gauge "pulse.t.gauge" in
      List.iter
        (fun (first, second) ->
          Domain.join (Domain.spawn (fun () -> Obs.set g first));
          Domain.join (Domain.spawn (fun () -> Obs.set g second));
          Alcotest.(check int) "the later write wins, whichever domain"
            second (Obs.gauge_value g))
        [ (5, 7); (7, 5) ])

(* The registry is one across domains: a name a worker registered as a
   counter cannot come back as another kind anywhere. *)
let test_merge_kind_mismatch () =
  Domain.join (Domain.spawn (fun () -> ignore (Obs.counter "pulse.t.kind")));
  List.iter
    (fun (what, register) ->
      match register () with
      | () -> Alcotest.failf "a counter re-registered as a %s" what
      | exception Wet_error.Error e ->
        Alcotest.(check bool) (what ^ ": Obs stage") true
          (e.Wet_error.stage = Wet_error.Obs))
    [
      ("gauge", fun () -> ignore (Obs.gauge "pulse.t.kind"));
      ("histogram", fun () -> ignore (Obs.histogram "pulse.t.kind"));
    ]

(* What a worker domain records is in the process view as it lands, with
   no merge step: its counts add to the main domain's. *)
let test_merge_into_process_view () =
  with_sink (fun () ->
      let c = Obs.counter "pulse.t.merged" in
      Obs.add c 2;
      Domain.join
        (Domain.spawn (fun () ->
             Obs.add (Obs.counter "pulse.t.merged") 3;
             Obs.observe (Obs.histogram "pulse.t.merged_h") 9));
      Alcotest.(check int) "both domains' counts in one cell" 5 (Obs.value c);
      match List.assoc "pulse.t.merged_h" (Obs.snapshot ()) with
      | Obs.Histogram s ->
        Alcotest.(check int) "the worker's observation is in the snapshot" 1
          s.Obs.h_count
      | _ -> Alcotest.fail "worker histogram missing")

(* Workers on real domains, released together, bump one shared counter
   and one shared histogram 100,000 and 50,000 times, and lose nothing:
   enough bumps that the two overlap, which a cell without its atomic or
   its lock fails. *)
let test_domain_workers_merge () =
  with_sink (fun () ->
      let c = Obs.counter "d.count" and h = Obs.histogram "d.hist" in
      let go = Atomic.make false in
      let worker n () =
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        for i = 1 to n do
          Obs.add c 1;
          Obs.observe h i
        done
      in
      let d1 = Domain.spawn (worker 100_000) in
      let d2 = Domain.spawn (worker 50_000) in
      Atomic.set go true;
      Domain.join d1;
      Domain.join d2;
      Alcotest.(check int) "counters sum" 150_000 (Obs.value c);
      match List.assoc "d.hist" (Obs.snapshot ()) with
      | Obs.Histogram s ->
        Alcotest.(check int) "every observation kept" 150_000 s.Obs.h_count;
        Alcotest.(check int) "sums add"
          ((100_000 * 100_001 / 2) + (50_000 * 50_001 / 2))
          s.Obs.h_sum;
        Alcotest.(check int) "max survives" 100_000 s.Obs.h_max
      | _ -> Alcotest.fail "d.hist missing")

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let mk_ev i =
  {
    Sink.ev_name = Printf.sprintf "e%d" i;
    ev_ts_ns = i;
    ev_dur_ns = None;
    ev_depth = 0;
    ev_attrs = [];
  }

let entry_name (e : Sink.event) = e.Sink.ev_name

let test_ring_wraparound () =
  let r = Ring.create ~capacity:8 () in
  for i = 0 to 19 do
    Ring.push r (mk_ev i)
  done;
  let entries, s = Ring.snapshot r in
  Alcotest.(check int) "total counts every push" 20 s.Ring.total;
  Alcotest.(check int) "dropped = total - capacity" 12 s.Ring.dropped;
  Alcotest.(check int) "retained at capacity" 8 s.Ring.retained;
  Alcotest.(check (list string)) "last 8, oldest to newest"
    (List.init 8 (fun i -> Printf.sprintf "e%d" (12 + i)))
    (List.map entry_name entries)

let test_ring_no_drops_below_capacity () =
  let r = Ring.create ~capacity:8 () in
  for i = 0 to 4 do
    Ring.push r (mk_ev i)
  done;
  let entries, s = Ring.snapshot r in
  Alcotest.(check int) "nothing dropped" 0 s.Ring.dropped;
  Alcotest.(check int) "all retained" 5 s.Ring.retained;
  Alcotest.(check int) "in order" 5 (List.length entries)

let test_ring_bad_capacity () =
  match Ring.create ~capacity:0 () with
  | _ -> Alcotest.fail "zero capacity accepted"
  | exception Wet_error.Error e ->
    Alcotest.(check bool) "Obs stage" true (e.Wet_error.stage = Wet_error.Obs)

let test_ring_concurrent_push () =
  let cap = 16 in
  let r = Ring.create ~capacity:cap () in
  let n = 5000 in
  let pusher () =
    for i = 0 to n - 1 do
      Ring.push r (mk_ev i)
    done
  in
  let d1 = Domain.spawn pusher and d2 = Domain.spawn pusher in
  Domain.join d1;
  Domain.join d2;
  let s = Ring.stats r in
  Alcotest.(check int) "no push lost" (2 * n) s.Ring.total;
  Alcotest.(check int) "drops account for the rest" ((2 * n) - cap)
    s.Ring.dropped;
  Alcotest.(check int) "window bounded" cap s.Ring.retained

(* The daemon's span sink: with buffering off, as [wet serve] runs, a
   span or an instant reaches neither the export buffer nor any ring,
   and the daemon's ring holds exactly the request spans pushed into
   it. Turned back on, the buffer records again. *)
let test_sink_tap_feeds_ring () =
  with_sink (fun () ->
      let r = Ring.create () in
      Sink.buffering := false;
      Fun.protect
        ~finally:(fun () -> Sink.buffering := true)
        (fun () ->
          Span.with_ "t.span" (fun () -> Span.instant "t.instant");
          Alcotest.(check int) "the buffer keeps nothing" 0
            (List.length (Sink.events ()));
          Ring.push r (mk_ev 1);
          let entries, s = Ring.snapshot r in
          Alcotest.(check int) "the ring holds what was pushed, no span" 1
            s.Ring.total;
          Alcotest.(check (list string)) "and only that" [ "e1" ]
            (List.map entry_name entries));
      Span.instant "t.after";
      Alcotest.(check (list string)) "the buffer records again"
        [ "t.after" ]
        (List.map entry_name (Sink.events ())))

(* A watch match has one home, its probe's own ring: the span sink's
   buffer sees nothing of it. *)
let test_watch_tap_feeds_ring () =
  let prog = Wl.compile (Wl.find "parser") in
  with_sink (fun () ->
      let p = Watch.probe ~name:"t.pulse" prog F.True Watch.Capture in
      Watch.with_armed [ p ]
        (fun () -> Watch.emit (E.kind_index E.Block_entry) 0 1 2 0 (-1) 7);
      Alcotest.(check int) "the span buffer sees nothing" 0
        (List.length (Sink.events ()));
      match Watch.ring p with
      | None -> Alcotest.fail "a Capture probe has a ring"
      | Some pr -> (
        match Wet_watch.Ring.to_list pr with
        | [ (e, wall) ] ->
          Alcotest.(check bool) "decoded kind" true
            (e.E.e_kind = E.Block_entry);
          Alcotest.(check int) "timestamp carried" 7 e.E.e_ts;
          Alcotest.(check bool) "wall stamp present" true (wall > 0)
        | _ -> Alcotest.fail "expected one match in the probe's ring"))

(* ------------------------------------------------------------------ *)
(* Reporter                                                            *)
(* ------------------------------------------------------------------ *)

let jint k j =
  match Json.member k j with
  | Some v -> Option.value (Json.to_int v) ~default:0
  | None -> 0

let test_reporter_jsonl_heartbeats () =
  with_sink (fun () ->
      let path = Filename.temp_file "wet_progress" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          let stmts = Obs.counter "interp.stmts" in
          let r = Reporter.create ~interval_ms:0 (Reporter.Jsonl oc) in
          Reporter.install r;
          Fun.protect ~finally:Reporter.uninstall (fun () ->
              Obs.add stmts 100;
              Sink.tick ();
              Obs.add stmts 150;
              Sink.tick ();
              Reporter.finish r);
          close_out oc;
          let ic = open_in path in
          let raw = really_input_string ic (in_channel_length ic) in
          close_in ic;
          let lines =
            String.split_on_char '\n' raw
            |> List.filter (fun l -> String.trim l <> "")
            |> List.map (fun l ->
                 match Json.parse l with
                 | Ok j -> j
                 | Error m -> Alcotest.fail ("bad heartbeat line: " ^ m))
          in
          match lines with
          | meta :: beats ->
            Alcotest.(check (option string)) "schema header"
              (Some Wet_obs.Export.schema)
              (Option.bind (Json.member "schema" meta) Json.to_str);
            Alcotest.(check int) "two ticks + finish" 3 (List.length beats);
            let stmts_seq = List.map (jint "stmts") beats in
            Alcotest.(check (list int)) "statement counts are monotone"
              (List.sort compare stmts_seq) stmts_seq;
            Alcotest.(check int) "final count reported" 250
              (List.nth stmts_seq 2);
            let seqs = List.map (jint "seq") beats in
            Alcotest.(check (list int)) "seq increments" [ 1; 2; 3 ] seqs;
            List.iter
              (fun b ->
                Alcotest.(check (list string)) "exact heartbeat keys"
                  [
                    "type"; "seq"; "elapsed_ms"; "stmts"; "stmts_per_sec";
                    "shards";
                  ]
                  (match b with
                   | Json.Obj fields -> List.map fst fields
                   | _ -> []))
              beats
          | [] -> Alcotest.fail "no heartbeat output"))

let test_reporter_rate_limit () =
  with_sink (fun () ->
      let path = Filename.temp_file "wet_progress" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          (* an hour-long interval: only [finish]'s forced emission and
             the first due tick can appear *)
          let r =
            Reporter.create ~interval_ms:3_600_000 (Reporter.Jsonl oc)
          in
          Reporter.install r;
          Fun.protect ~finally:Reporter.uninstall (fun () ->
              for _ = 1 to 100 do
                Sink.tick ()
              done;
              Reporter.finish r);
          close_out oc;
          let ic = open_in path in
          let raw = really_input_string ic (in_channel_length ic) in
          close_in ic;
          let beats =
            String.split_on_char '\n' raw
            |> List.filter (fun l ->
                 String.length l > 0
                 && String.length l >= 19
                 && String.sub l 0 19 = "{\"type\":\"heartbeat\"")
          in
          Alcotest.(check bool) "ticks rate-limited" true
            (List.length beats <= 2)))

let () =
  Alcotest.run "pulse"
    [
      ( "merge",
        [
          QCheck_alcotest.to_alcotest prop_merge_equivalence;
          Alcotest.test_case "gauge last-write-wins" `Quick
            test_gauge_last_write;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_merge_kind_mismatch;
          Alcotest.test_case "merge into process view" `Quick
            test_merge_into_process_view;
          Alcotest.test_case "domain workers merge" `Quick
            test_domain_workers_merge;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound and drop counters" `Quick
            test_ring_wraparound;
          Alcotest.test_case "no drops below capacity" `Quick
            test_ring_no_drops_below_capacity;
          Alcotest.test_case "bad capacity rejected" `Quick
            test_ring_bad_capacity;
          Alcotest.test_case "concurrent pushes accounted" `Quick
            test_ring_concurrent_push;
          Alcotest.test_case "span sink tap" `Quick test_sink_tap_feeds_ring;
          Alcotest.test_case "watch tap" `Quick test_watch_tap_feeds_ring;
        ] );
      ( "reporter",
        [
          Alcotest.test_case "jsonl heartbeats" `Quick
            test_reporter_jsonl_heartbeats;
          Alcotest.test_case "rate limiting" `Quick test_reporter_rate_limit;
        ] );
    ]
