(* The curated registry of instrument names. The runtime registry
   (Wet_obs.Metrics) is created by side effect at module init, so names
   can silently drift; `wet profile --list-metrics` prints this table
   next to the live registry and flags names only one side knows. *)

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let docs =
  [
    (* interpreter *)
    ("interp.stmts", Counter, "statement instances executed");
    ("interp.block_execs", Counter, "basic-block executions");
    ("interp.path_execs", Counter, "Ball-Larus acyclic path executions");
    ("interp.dep_events", Counter, "dynamic dependence events recorded");
    ("interp.outputs", Counter, "program output values");
    ("interp.heartbeat_stmts", Gauge, "statements at the last heartbeat");
    (* tier-1 construction *)
    ("build.intern.hits", Counter, "label-sequence intern table hits");
    ("build.intern.misses", Counter, "label-sequence intern table misses");
    ("build.labels.records", Counter, "dependence label records built");
    ("build.labels.dedup_hits", Counter, "label sequences shared via dedup");
    ("build.labels.shared_values", Counter, "values saved by label sharing");
    ("build.groups.count", Counter, "statement groups formed");
    ("build.groups.members", Counter, "group member statements");
    ("build.groups.unique_tuples", Counter, "distinct value tuples per group");
    ("build.groups.pattern_entries", Counter, "pattern stream entries");
    ("build.shards", Counter, "streaming-build shard flushes");
    ("build.shard_events", Histogram, "raw events buffered per shard flush");
    ("build.peak_live_words", Gauge,
     "peak GC live words sampled at shard boundaries");
    (* tier-2 packing *)
    ("pack.streams", Counter, "streams compressed by Builder.pack");
    ("pack.bits_raw", Counter, "analytic bits before packing");
    ("pack.bits_packed", Counter, "analytic bits after packing");
    ("pack.stream_values", Histogram, "values per packed stream");
    ("pack.method.<m>.streams", Counter,
     "streams won by method <m> (e.g. dfcm/4, raw)");
    ("pack.method.<m>.bits_saved", Counter, "bits method <m> saved vs raw");
    ("pack.trial_values", Counter,
     "entries the selection trials classified before stopping");
    ("pack.trials_cut", Counter,
     "selection trials stopped once their size could no longer win");
    (* container I/O *)
    ("store.bytes_written", Counter, "container bytes written");
    ("store.bytes_read", Counter, "container bytes read");
    ("store.sections_ok", Counter, "sections whose CRC verified");
    ("store.sections_corrupt", Counter, "sections failing CRC");
    ("store.salvaged_loads", Counter, "loads that recovered via salvage");
    (* checkpoint journal (durable builds) *)
    ("journal.records", Counter, "checkpoint-journal records appended");
    ("journal.replayed_shards", Counter,
     "shards fast-forwarded through on resume instead of rebuilt");
    ("journal.resume_ms", Gauge,
     "wall ms a resumed build spent re-executing up to its watermark");
    (* queries *)
    ("query.control_flow_ns", Histogram, "control-flow query latency (ns)");
    ("query.load_values_ns", Histogram, "load-value query latency (ns)");
    ("query.addresses_ns", Histogram, "address query latency (ns)");
    ("slice.backward_ns", Histogram, "backward slice latency (ns)");
    ("slice.forward_ns", Histogram, "forward slice latency (ns)");
    ("slice.chop_ns", Histogram, "chop latency (ns)");
    (* tracer driver *)
    ("watch.<name>.matches", Counter, "events matched by watch <name>");
    (* live progress reporter *)
    ("pulse.reporter.ticks", Counter, "progress ticks offered to the reporter");
    ("pulse.reporter.emits", Counter, "progress lines/heartbeats emitted");
    ("pulse.reporter.emit_ns", Histogram, "time spent emitting progress (ns)");
    (* per-query profiling (wet_qprof) *)
    ("qprof.queries", Counter, "queries run under a profiling context");
    ("qprof.fwd_steps", Counter, "forward ledger steps (profiled, self)");
    ("qprof.bwd_steps", Counter, "backward ledger steps (profiled, self)");
    ("qprof.dir_switches", Counter,
     "steps that reversed their cursor's direction (profiled, self)");
    ("qprof.dict_hits", Counter,
     "dictionary-hit entries decoded (profiled, self)");
    ("qprof.dict_misses", Counter,
     "verbatim entries decoded (profiled, self)");
    ("qprof.bits_touched", Counter, "stored bits touched (profiled, self)");
    ("qprof.seeks", Counter, "cursor repositioning calls (profiled, self)");
    ("qprof.seek_steps", Counter,
     "ledger steps taken inside seeks (profiled, self)");
    ("qprof.alloc_words", Counter,
     "words allocated by profiled queries (self)");
    ("qprof.wall_ns", Histogram, "profiled query latency (ns)");
    ("qprof.latency.<shape>", Histogram,
     "latency by query-shape fingerprint (ns), a closed set: \
      trace/{cf,values,addresses}, slice/backward, at, paths (CLI and \
      daemon), trace/invalid (every trace kind the daemon rejects), \
      serve/<verb> (daemon-only verbs), bench/sweep (bench observatory)");
    (* query daemon (wet_serve) *)
    ("serve.connections", Counter, "client connections accepted");
    ("serve.requests.<verb>", Counter, "requests answered for verb <verb>");
    ("serve.errors", Counter, "requests answered with an error");
    ("serve.in_flight", Gauge, "requests currently being dispatched");
    ("serve.bytes_in", Counter, "request bytes read from clients");
    ("serve.bytes_out", Counter, "response bytes written to clients");
    ("serve.cache.hits", Counter, "WET container cache hits");
    ("serve.cache.misses", Counter, "WET container cache misses (loads)");
    ("serve.cache.evictions", Counter, "resident WETs evicted by LRU");
    ("serve.sessions.opened", Counter,
     "per-connection sessions opened over resident WETs");
    ("serve.sessions.reused", Counter,
     "requests answered by a connection's existing session");
    ("serve.request_ns", Histogram, "request dispatch latency (ns)");
  ]

(* Match a live name against a doc name, where a <placeholder> segment
   matches any run of characters up to the next literal part. *)
let matches ~pattern name =
  let rec go pi ni =
    if pi >= String.length pattern then ni = String.length name
    else if pattern.[pi] = '<' then begin
      let close =
        match String.index_from_opt pattern pi '>' with
        | Some c -> c
        | None -> String.length pattern - 1
      in
      let rest_start = close + 1 in
      if rest_start >= String.length pattern then ni <= String.length name
      else begin
        (* try every split point for the wildcard *)
        let ok = ref false in
        let j = ref ni in
        while (not !ok) && !j <= String.length name do
          if go rest_start !j then ok := true;
          incr j
        done;
        !ok
      end
    end
    else if ni < String.length name && pattern.[pi] = name.[ni] then
      go (pi + 1) (ni + 1)
    else false
  in
  go 0 0

let lookup name =
  List.find_map
    (fun (pat, _, desc) ->
      if pat = name || (String.contains pat '<' && matches ~pattern:pat name)
      then Some desc
      else None)
    docs
