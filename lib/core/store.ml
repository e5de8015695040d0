(* Persistence via the sectioned {!Container} format. Two properties
   are load-bearing for the robustness story:

   - Atomicity: the container bytes are staged in a temp file next to
     the destination, fsynced, then renamed over it. A crash mid-save
     (simulated by [crash_after]) leaves the previous file intact.

   - Determinism: the container holds no traversal state. Cursors live
     in sessions, and tier-2 bodies are templates parked at the left end
     that no query steps, so the written bytes are independent of prior
     query activity. *)

exception Corrupt of { path : string; fault : Container.fault }

let () =
  Printexc.register_printer (function
    | Corrupt { path; fault } ->
      Some
        (Printf.sprintf "Store.Corrupt (%s: %s)" path
           (Container.fault_message fault))
    | _ -> None)

let corrupt_message ~path fault =
  Printf.sprintf "%s: %s" path (Container.fault_message fault)

let c_bytes_written = Wet_obs.Metrics.counter "store.bytes_written"

let c_bytes_read = Wet_obs.Metrics.counter "store.bytes_read"

let c_sections_ok = Wet_obs.Metrics.counter "store.sections_ok"

let c_sections_corrupt = Wet_obs.Metrics.counter "store.sections_corrupt"

let c_salvaged_loads = Wet_obs.Metrics.counter "store.salvaged_loads"

exception Crash_injected

let crash_after : int option ref = ref None

(* Write [data] to [fd], raising {!Crash_injected} after [!crash_after]
   bytes when the hook is armed. The partial prefix really reaches the
   file first, so the temp file left behind looks like a torn write. *)
let write_all fd data =
  let len = String.length data in
  let bytes = Bytes.unsafe_of_string data in
  let limit =
    match !crash_after with
    | Some n when n < len ->
      crash_after := None;
      Some n
    | _ -> None
  in
  let upto = match limit with Some n -> n | None -> len in
  let pos = ref 0 in
  while !pos < upto do
    pos := !pos + Unix.write fd bytes !pos (upto - !pos)
  done;
  if limit <> None then raise Crash_injected

let save (w : Wet.t) path =
  Wet_obs.Span.with_ "store.save"
    ~attrs:[ ("path", Wet_obs.Span.Str path) ]
    (fun () ->
      let data = Container.encode w in
      let dir = Filename.dirname path in
      let tmp =
        Filename.temp_file ~temp_dir:dir
          ("." ^ Filename.basename path ^ ".")
          ".tmp"
      in
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      (try
         write_all fd data;
         Unix.fsync fd;
         Unix.close fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      Unix.rename tmp path;
      let bytes = String.length data in
      Wet_obs.Metrics.add c_bytes_written bytes;
      Wet_obs.Span.set_attr "bytes" (Wet_obs.Span.Int bytes))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A crash between temp-file creation and the rename strands a
   [.<basename>.<rand>.tmp] next to the destination. They are inert —
   [load] never looks at them — but they accumulate, so [fsck] sweeps
   for them. Matching is deliberately exact about the frame
   ("." prefix, basename, "." separator, ".tmp" suffix) to avoid
   claiming unrelated dotfiles. *)
let orphan_temps path =
  let dir = Filename.dirname path in
  let prefix = "." ^ Filename.basename path ^ "." in
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list entries
  |> List.filter (fun name ->
         String.length name > String.length prefix + 4
         && String.sub name 0 (String.length prefix) = prefix
         && Filename.check_suffix name ".tmp")
  |> List.sort compare
  |> List.map (fun name -> Filename.concat dir name)

let remove_orphans path =
  let orphans = orphan_temps path in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    orphans;
  orphans

let load ?(salvage = false) path =
  Wet_obs.Span.with_ "store.load"
    ~attrs:[ ("path", Wet_obs.Span.Str path) ]
    (fun () ->
      let data = read_file path in
      Wet_obs.Metrics.add c_bytes_read (String.length data);
      Wet_obs.Span.set_attr "bytes"
        (Wet_obs.Span.Int (String.length data));
      match Container.decode ~salvage data with
      | Error fault -> raise (Corrupt { path; fault })
      | Ok (w, health) ->
        List.iter
          (fun (s : Container.section_status) ->
            Wet_obs.Metrics.incr
              (if s.Container.sec_fault = None then c_sections_ok
               else c_sections_corrupt))
          health.Container.hl_sections;
        if w.Wet.damage <> [] then Wet_obs.Metrics.incr c_salvaged_loads;
        w)
