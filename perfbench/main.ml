(* The repository benchmark: one named workload, seeded, measured for a
   fixed time, every output checked; see README.md.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --wet-cli WET
     main.exe --selftest BENCHMARK.json --wet-cli WET

   The last line of standard output is the result:
   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
   holding the end-to-end metrics, or with --trace 1 the per-layer ones. *)

module Json = Common.Json

let default_seed = 1

(* Not used while the benchmark was written; recheck claims on it. *)
let held_out_seed = 104729

let workloads = [ "build"; "build_durable"; "serve_scan"; "serve_cold" ]

(* A traced run arms the observation sink, so every span, the
   benchmark's and the library's, records into its in-memory buffer;
   at the end the spans are written out as a Chrome trace. *)
let run_workload (cfg : Common.cfg) =
  Common.mkdir_p cfg.Common.dir;
  if cfg.Common.traced then Wet_obs.Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Wet_obs.Sink.disable ();
      Common.rm_rf cfg.Common.dir)
    (fun () ->
      let o =
        match cfg.Common.workload with
        | "build" -> Jobs.run cfg ~durable:false
        | "build_durable" -> Jobs.run cfg ~durable:true
        | "serve_scan" -> Serve_load.run cfg ~cold:false
        | "serve_cold" -> Serve_load.run cfg ~cold:true
        | w -> invalid_arg ("unknown workload " ^ w)
      in
      if not cfg.Common.traced then o
      else begin
        let path =
          Printf.sprintf ".perfbench/trace-%s-seed%d.json" cfg.Common.workload
            cfg.Common.seed
        in
        Wet_obs.Export.write_chrome_trace path;
        { o with Catalogue.notes = o.Catalogue.notes @ [ "spans written to " ^ path ] }
      end)

let correct (o : Catalogue.outcome) =
  o.Catalogue.failed = 0
  && List.for_all snd o.Catalogue.checks
  && List.for_all snd o.Catalogue.layer_checks

let catalogue traced = if traced then Catalogue.per_layer else Catalogue.end_to_end

(* The human-readable report, every line of which precedes the result. *)
let report (cfg : Common.cfg) (o : Catalogue.outcome) =
  let metric (name, unit) =
    Printf.sprintf "  %-26s %16.6f %s" name (List.assoc name o.Catalogue.values) unit
  in
  let check (name, ok) = Printf.sprintf "  [%s] %s" (if ok then "ok" else "FAILED") name in
  let err_name, err_unit = Catalogue.error_rate in
  [ Printf.sprintf "perfbench %s seed %d%s" cfg.Common.workload cfg.Common.seed
      (if cfg.Common.traced then " (traced)" else "") ]
  @ List.map (fun n -> "  " ^ n) o.Catalogue.notes
  @ List.map check (o.Catalogue.checks @ o.Catalogue.layer_checks)
  @ List.map metric (catalogue cfg.Common.traced)
  @ [
      Printf.sprintf "  %-26s %16.6f %s (%d of %d failed)" err_name
        (float_of_int o.Catalogue.failed /. float_of_int (max 1 o.Catalogue.attempted))
        err_unit o.Catalogue.failed o.Catalogue.attempted;
    ]

let result_line (cfg : Common.cfg) (o : Catalogue.outcome) =
  let finite v = if Float.is_finite v then v else 1e12 in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct o));
         ("attempted", Json.Num (float_of_int (max 1 o.Catalogue.attempted)));
         ("failed", Json.Num (float_of_int o.Catalogue.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit) ->
                  ( name,
                    Json.Obj
                      [
                        ("value", Json.Num (finite (List.assoc name o.Catalogue.values)));
                        ("unit", Json.Str unit);
                      ] ))
                (catalogue cfg.Common.traced)) );
       ])

let run cfg =
  let outcome = run_workload cfg in
  let stamp =
    Common.stamp ~workload:cfg.Common.workload ~seed:cfg.Common.seed
      ~seconds:cfg.Common.seconds ~traced:cfg.Common.traced
  in
  List.iter print_endline (report cfg outcome);
  print_endline ("stamp " ^ Json.to_string stamp);
  print_endline (result_line cfg outcome)

(* ---------------- self-test ---------------- *)

(* At tiny scale: the catalogue equals BENCHMARK.json's lists; every
   workload, plain and traced, passes its output checks and prints every
   metric of its mode with its unit; and a deliberately wrong reference
   answer makes the error rate non-zero. *)
let selftest ~benchmark ~wet_cli =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("selftest: " ^ m); exit 1) fmt in
  let doc =
    match Json.parse (In_channel.with_open_bin benchmark In_channel.input_all) with
    | Ok d -> d
    | Error e -> fail "%s: %s" benchmark e
  in
  let listed key =
    match Option.bind (Json.member key doc) Json.to_list with
    | None -> fail "%s has no %s list" benchmark key
    | Some l ->
      List.map
        (fun m ->
          match
            ( Option.bind (Json.member "name" m) Json.to_str,
              Option.bind (Json.member "unit" m) Json.to_str )
          with
          | Some n, Some u -> (n, u)
          | _ -> fail "%s: malformed %s entry" benchmark key)
        l
  in
  if listed "end_to_end" <> Catalogue.end_to_end then
    fail "end_to_end in %s differs from the catalogue" benchmark;
  if listed "per_layer" <> Catalogue.per_layer then
    fail "per_layer in %s differs from the catalogue" benchmark;
  let cfg workload ~traced ~wrong_reference =
    {
      Common.workload;
      seed = default_seed;
      seconds = 0.3;
      traced;
      wet_cli;
      dir = Printf.sprintf ".perfbench/selftest-%s" workload;
      tiny = true;
      wrong_reference;
    }
  in
  List.iter
    (fun w ->
      List.iter
        (fun traced ->
          let c = cfg w ~traced ~wrong_reference:false in
          let o = run_workload c in
          let text = String.concat "\n" (report c o) in
          List.iter
            (fun (name, unit) ->
              let shown =
                List.exists
                  (fun line ->
                    String.starts_with ~prefix:("  " ^ name ^ " ") line
                    && String.ends_with ~suffix:(" " ^ unit) line)
                  (String.split_on_char '\n' text)
              in
              if not shown then fail "%s: %s is not printed with unit %s" w name unit)
            (catalogue traced);
          if o.Catalogue.failed > 0 || not (List.for_all snd o.Catalogue.checks) then
            fail "%s%s: output checks failed\n%s" w
              (if traced then " (traced)" else "") text;
          Printf.printf "selftest: %s%s ok (%d attempted)\n%!" w
            (if traced then " traced" else "") o.Catalogue.attempted)
        [ false; true ])
    workloads;
  List.iter
    (fun w ->
      let o = run_workload (cfg w ~traced:false ~wrong_reference:true) in
      if o.Catalogue.failed = 0 then
        fail "%s: a wrong reference answer left error_rate at 0" w;
      Printf.printf "selftest: %s with a wrong reference: %d of %d failed\n%!" w
        o.Catalogue.failed o.Catalogue.attempted)
    [ "build_durable"; "serve_scan" ];
  print_endline "selftest: ok"

(* ---------------- command line ---------------- *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref 0 and wet_cli = ref "" and selftest_json = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ( "--seed",
        Arg.Set_int seed,
        Printf.sprintf "N run seed (default %d; held-out %d)" default_seed held_out_seed );
      ("--seconds", Arg.Set_float seconds, "S measured phase length");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ("--wet-cli", Arg.Set_string wet_cli, "PATH the wet binary that serves");
      ("--selftest", Arg.Set_string selftest_json, "BENCHMARK.json run the self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --wet-cli PATH";
  (* a terminated run still stops its daemon (at_exit in Serve_load) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  if !wet_cli = "" || not (Sys.file_exists !wet_cli) then begin
    prerr_endline "perfbench: --wet-cli must name the built wet binary";
    exit 2
  end;
  if !selftest_json <> "" then selftest ~benchmark:!selftest_json ~wet_cli:!wet_cli
  else if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline
      ("perfbench: --workload must be one of " ^ String.concat ", " workloads
     ^ " and --trace 0 or 1");
    exit 2
  end
  else
    run
      {
        Common.workload = !workload;
        seed = !seed;
        seconds = !seconds;
        traced = !trace = 1;
        wet_cli = !wet_cli;
        dir = Printf.sprintf ".perfbench/%s-%d" !workload (Unix.getpid ());
        tiny = false;
        wrong_reference = false;
      }
