(* Reading back a traced run. Its spans are recorded by [Wet_obs.Span]:
   the benchmark's own around each call it times ("frontend", "job",
   "request", "probe.interp", ...) beside the library's ("interp.run",
   "build.stream", "build.tier2", "store.save", "store.load", ...). They
   stay in the sink's in-memory buffer until the run ends, when
   [Wet_obs.Export] writes them out as a Chrome trace. A span records
   its depth, not its parent; [of_events] rebuilds the tree from depth
   and time. *)

module Sink = Wet_obs.Sink

(* [with_sink on f] runs [f] with the sink, and so every span, ours and
   the library's, switched on or off, and restores it afterwards. *)
let with_sink on f =
  let was = !Sink.enabled in
  Sink.enabled := on;
  Fun.protect ~finally:(fun () -> Sink.enabled := was) f

type t = {
  evs : Sink.event array;  (** spans, by start time *)
  root : int array;  (** index of each span's outermost ancestor *)
  self : int array;  (** ns its direct children leave uncovered *)
}

let dur e = Option.value e.Sink.ev_dur_ns ~default:0

(* A span's parent is the innermost span, one level up, that encloses
   it. Spans recorded at depth 0 from several threads (client round
   trips) may overlap one another; they stay roots. *)
let of_events events =
  let evs =
    Array.of_list (List.filter (fun e -> e.Sink.ev_dur_ns <> None) events)
  in
  Array.stable_sort
    (fun a b ->
      compare (a.Sink.ev_ts_ns, a.Sink.ev_depth) (b.Sink.ev_ts_ns, b.Sink.ev_depth))
    evs;
  let root = Array.init (Array.length evs) Fun.id and self = Array.map dur evs in
  let encloses j e =
    evs.(j).Sink.ev_depth < e.Sink.ev_depth
    && evs.(j).Sink.ev_ts_ns + dur evs.(j) >= e.Sink.ev_ts_ns
  in
  let open_ = ref [] in
  Array.iteri
    (fun i e ->
      let rec pop = function j :: rest when not (encloses j e) -> pop rest | s -> s in
      open_ := pop !open_;
      (match !open_ with
       | j :: _ ->
         root.(i) <- root.(j);
         self.(j) <- self.(j) - dur e
       | [] -> ());
      open_ := i :: !open_)
    evs;
  { evs; root; self }

let fold t ?root name f =
  let acc = ref 0 in
  Array.iteri
    (fun i e ->
      let under =
        match root with None -> true | Some r -> t.evs.(t.root.(i)).Sink.ev_name = r
      in
      if e.Sink.ev_name = name && under then acc := !acc + f i)
    t.evs;
  !acc

(* Summed duration, in ms, of the spans called [name] (only those under
   a root called [root], when given). *)
let total_ms t ?root name = Common.ms (fold t ?root name (fun i -> dur t.evs.(i)))

(* Summed self time, in ms, of the spans called [name]. *)
let self_ms t ?root name = Common.ms (fold t ?root name (fun i -> t.self.(i)))
