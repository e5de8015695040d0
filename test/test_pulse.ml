(* Live observation and the domain-local metrics: the QCheck law that
   any partition of a recorded workload across local registries merges
   back to exactly the single-registry result, gauge last-write
   resolution, merge kind mismatches, the daemon's ring (wraparound and
   drop accounting, including under concurrent pushes from two domains,
   and the span tap that makes it the one home of the events it takes),
   watch matches kept in their probe's own ring, and the progress
   reporter's heartbeat output. *)

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
(* Merge semantics                                                     *)
(* ------------------------------------------------------------------ *)

(* One recorded operation: (kind, instrument, value). The name embeds
   the kind, so a generated workload can never trip the kind-mismatch
   error — that path has its own test below. *)
let apply reg (kind, name_i, v) =
  match kind mod 3 with
  | 0 -> Obs.add (Obs.Local.counter reg (Printf.sprintf "c%d" name_i)) v
  | 1 -> Obs.set (Obs.Local.gauge reg (Printf.sprintf "g%d" name_i)) v
  | _ ->
    Obs.observe (Obs.Local.histogram reg (Printf.sprintf "h%d" name_i)) v

(* Replaying a workload into one registry must equal replaying it
   partitioned across [k] worker registries (global order preserved —
   each op is recorded by the worker it is assigned to) and merging
   them back, in any merge order. *)
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
          let single = Obs.Local.create () in
          List.iter (fun (kind, n, v, _) -> apply single (kind, n, v)) ops;
          let locals = Array.init k (fun _ -> Obs.Local.create ()) in
          List.iter
            (fun (kind, n, v, part) ->
              apply locals.(part mod k) (kind, n, v))
            ops;
          let want = Obs.Local.snapshot single in
          let forward = Obs.Local.create () in
          Array.iter (fun l -> Obs.merge ~into:forward l) locals;
          let backward = Obs.Local.create () in
          for i = k - 1 downto 0 do
            Obs.merge ~into:backward locals.(i)
          done;
          Obs.Local.snapshot forward = want
          && Obs.Local.snapshot backward = want))

let test_gauge_last_write () =
  with_sink (fun () ->
      let a = Obs.Local.create () and b = Obs.Local.create () in
      Obs.set (Obs.Local.gauge a "g") 5;
      Obs.set (Obs.Local.gauge b "g") 7;
      (* b's write happened later, so it wins in either merge order *)
      List.iter
        (fun order ->
          let m = Obs.Local.create () in
          List.iter (fun r -> Obs.merge ~into:m r) order;
          match Obs.Local.snapshot m with
          | [ ("g", Obs.Gauge v) ] ->
            Alcotest.(check int) "last write wins" 7 v
          | _ -> Alcotest.fail "unexpected snapshot")
        [ [ a; b ]; [ b; a ] ])

let test_merge_kind_mismatch () =
  let a = Obs.Local.create () and b = Obs.Local.create () in
  ignore (Obs.Local.counter a "x");
  ignore (Obs.Local.gauge b "x");
  match Obs.merge ~into:a b with
  | () -> Alcotest.fail "kind mismatch not rejected"
  | exception Wet_error.Error e ->
    Alcotest.(check bool) "Obs stage" true (e.Wet_error.stage = Wet_error.Obs)

let test_merge_into_process_view () =
  with_sink (fun () ->
      let c = Obs.counter "pulse.t.merged" in
      Obs.add c 2;
      let l = Obs.Local.create () in
      Obs.add (Obs.Local.counter l "pulse.t.merged") 3;
      Obs.observe (Obs.Local.histogram l "pulse.t.merged_h") 9;
      Obs.merge l;
      Alcotest.(check int) "counter summed into the facade cell" 5
        (Obs.value c);
      match List.assoc "pulse.t.merged_h" (Obs.snapshot ()) with
      | Obs.Histogram s ->
        Alcotest.(check int) "histogram landed in the process view" 1
          s.Obs.h_count
      | _ -> Alcotest.fail "merged histogram missing")

(* Workers on real domains, each with a private registry — no shared
   instrument cells — merged after join. *)
let test_domain_workers_merge () =
  with_sink (fun () ->
      let worker n () =
        let reg = Obs.Local.create () in
        let c = Obs.Local.counter reg "d.count" in
        let h = Obs.Local.histogram reg "d.hist" in
        for i = 1 to n do
          Obs.add c 1;
          Obs.observe h i
        done;
        reg
      in
      let d1 = Domain.spawn (worker 1000) in
      let d2 = Domain.spawn (worker 500) in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      let into = Obs.Local.create () in
      Obs.merge ~into r1;
      Obs.merge ~into r2;
      (match List.assoc "d.count" (Obs.Local.snapshot into) with
       | Obs.Counter v -> Alcotest.(check int) "counters sum" 1500 v
       | _ -> Alcotest.fail "d.count missing");
      match List.assoc "d.hist" (Obs.Local.snapshot into) with
      | Obs.Histogram s ->
        Alcotest.(check int) "all observations merged" 1500 s.Obs.h_count;
        Alcotest.(check int) "max survives" 1000 s.Obs.h_max
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

(* A tapped event has one home: the ring takes it and the sink's export
   buffer keeps nothing until the tap is removed. *)
let test_sink_tap_feeds_ring () =
  with_sink (fun () ->
      let r = Ring.create () in
      Ring.install r;
      Fun.protect ~finally:Ring.uninstall (fun () ->
          Span.with_ "t.span" (fun () -> Span.instant "t.instant");
          let entries, s = Ring.snapshot r in
          Alcotest.(check int) "instant + span close" 2 s.Ring.total;
          Alcotest.(check (list string)) "emission order"
            [ "t.instant"; "t.span" ]
            (List.map entry_name entries);
          Alcotest.(check int) "the buffer keeps nothing while tapped" 0
            (List.length (Sink.events ())));
      (* taps removed: later spans stay out of the ring and reach the
         buffer again *)
      Span.instant "t.after";
      Alcotest.(check int) "uninstalled tap sees nothing" 2
        (Ring.stats r).Ring.total;
      Alcotest.(check (list string)) "the buffer records again"
        [ "t.after" ]
        (List.map entry_name (Sink.events ())))

(* A watch match has one home, its probe's own ring; a span ring
   installed beside it sees nothing of it. *)
let test_watch_tap_feeds_ring () =
  let prog = Wl.compile (Wl.find "parser") in
  with_sink (fun () ->
      let r = Ring.create () in
      Ring.install r;
      Fun.protect ~finally:Ring.uninstall (fun () ->
          let p = Watch.probe ~name:"t.pulse" prog F.True Watch.Capture in
          Watch.with_armed [ p ]
            (fun () ->
              Watch.emit (E.kind_index E.Block_entry) 0 1 2 0 (-1) 7);
          Alcotest.(check int) "the span ring sees nothing" 0
            (Ring.stats r).Ring.total;
          match Watch.ring p with
          | None -> Alcotest.fail "a Capture probe has a ring"
          | Some pr -> (
            match Wet_watch.Ring.to_list pr with
            | [ (e, wall) ] ->
              Alcotest.(check bool) "decoded kind" true
                (e.E.e_kind = E.Block_entry);
              Alcotest.(check int) "timestamp carried" 7 e.E.e_ts;
              Alcotest.(check bool) "wall stamp present" true (wall > 0)
            | _ -> Alcotest.fail "expected one match in the probe's ring")))

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
