module Stream = Wet_bistream.Stream
module Crc32 = Wet_util.Crc32

(* v3 keeps the v2 section layout but the marshalled stream payloads
   gained telemetry fields; loading a v2 payload into the new record
   layout would not fail the CRC, so the version must fence it off.
   v4: the stream record split into an immutable body plus an optional
   default cursor (the container/session redesign) — the marshalled
   stream layout changed again.
   v5: the default cursor went; a stream is marshalled as its bare body
   (raw array or packed template), so a v4 stream record would otherwise
   be read as the wrong constructor.
   v6: a packed stream no longer carries its four traversal counters
   (steps are counted in the reading session's ledger), so a v5 packed
   body would be read with four words too many.
   v7: six sections, each fact stored once. [analysis], [copy.map],
   [index.out] and [index.stmts] are gone (the loader derives them),
   the nodes' control sources moved from [graph.nodes] to
   [labels.deps], and [meta] lost the counts and the tier the other
   sections and the header already hold. *)
let format_version = 7

let magic = "WETOCaml"

let footer_magic = "WETF"

(* Header = magic + version + tier + flags + section count. *)
let header_size = 8 + 4 + 1 + 1 + 4

let footer_size = String.length footer_magic + 4

type fault =
  | Not_wet
  | Bad_version of int
  | Truncated of { what : string; offset : int }
  | Bad_section of {
      name : string;
      offset : int;
      length : int;
      expected_crc : int;
      actual_crc : int;
    }
  | Bad_footer of { expected_crc : int; actual_crc : int }
  | Malformed of string

let fault_message = function
  | Not_wet -> "not a WET container (bad magic)"
  | Bad_version v ->
    Printf.sprintf "container version %d, expected %d%s" v format_version
      (if v = 1 then " (legacy v1 monolithic format; rebuild with `wet build`)"
       else if v > 1 && v < format_version then
         " (older sectioned format; rebuild with `wet build`)"
       else "")
  | Truncated { what; offset } ->
    Printf.sprintf "truncated inside %s (file ends at byte %d)" what offset
  | Bad_section { name; offset; length; expected_crc; actual_crc } ->
    Printf.sprintf
      "section '%s' corrupt (crc mismatch at offset %d, %d bytes: expected \
       0x%08x, got 0x%08x)"
      name offset length expected_crc actual_crc
  | Bad_footer { expected_crc; actual_crc } ->
    Printf.sprintf
      "footer checksum mismatch (expected 0x%08x, got 0x%08x; header or \
       section table corrupt)"
      expected_crc actual_crc
  | Malformed m -> "malformed container: " ^ m

type section_status = {
  sec_name : string;
  sec_offset : int;
  sec_length : int;
  sec_crc : int;
  sec_fault : fault option;
}

type health = {
  hl_version : int;
  hl_tier : [ `Tier1 | `Tier2 ];
  hl_file_bytes : int;
  hl_sections : section_status list;
  hl_footer : fault option;
}

exception Fail of fault

let fail f = raise (Fail f)

let required = function
  | "meta" | "program" | "graph.nodes" -> true
  | _ -> false

(* The [meta] section: the scalars no other section holds, plus the
   damage a previous salvage already recorded. *)
type meta = {
  m_first : int;
  m_last : int;
  m_stats : Wet.stats;
  m_damage : string list;
}

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

let empty_seq () = Stream.compress_with `Raw [||]

let sections_of (w : Wet.t) =
  let mar v = Marshal.to_string v [] in
  let meta =
    {
      m_first = w.Wet.first_node;
      m_last = w.Wet.last_node;
      m_stats = w.Wet.stats;
      m_damage = w.Wet.damage;
    }
  in
  (* Timestamps and control sources live in their label sections: the
     graph is stored with placeholders and re-spliced on load. The
     control sources share one payload with the copies' dependence
     slots, so a label record both reach is marshalled once. *)
  let stripped =
    Array.map
      (fun n -> { n with Wet.n_ts = empty_seq (); n_cd = [||] })
      w.Wet.nodes
  in
  let all =
    [
      ("meta", mar meta);
      ("program", mar w.Wet.program);
      ("graph.nodes", mar stripped);
      ("labels.ts", mar (Array.map (fun n -> n.Wet.n_ts) w.Wet.nodes));
      ("labels.values", mar w.Wet.copy_uvals);
      ( "labels.deps",
        mar (Array.map (fun n -> n.Wet.n_cd) w.Wet.nodes, w.Wet.copy_deps) );
    ]
  in
  List.filter (fun (n, _) -> not (List.mem n w.Wet.damage)) all

let add_u32 b v =
  for i = 3 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let add_u64 b v =
  for i = 7 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let encode (w : Wet.t) =
  let secs = sections_of w in
  let table_size =
    List.fold_left (fun a (n, _) -> a + 1 + String.length n + 20) 0 secs
  in
  let b = Buffer.create (64 * 1024) in
  Buffer.add_string b magic;
  add_u32 b format_version;
  Buffer.add_char b (match w.Wet.tier with `Tier1 -> '\001' | `Tier2 -> '\002');
  Buffer.add_char b '\000';
  add_u32 b (List.length secs);
  let off = ref (header_size + table_size) in
  List.iter
    (fun (name, payload) ->
      Buffer.add_char b (Char.chr (String.length name));
      Buffer.add_string b name;
      add_u64 b !off;
      add_u64 b (String.length payload);
      add_u32 b (Crc32.string payload);
      off := !off + String.length payload)
    secs;
  List.iter (fun (_, payload) -> Buffer.add_string b payload) secs;
  let body = Buffer.contents b in
  let f = Buffer.create footer_size in
  Buffer.add_string f footer_magic;
  add_u32 f (Crc32.string body);
  body ^ Buffer.contents f

(* ------------------------------------------------------------------ *)
(* Parsing and verification                                           *)
(* ------------------------------------------------------------------ *)

let get_u8 s off what =
  if off >= String.length s then
    fail (Truncated { what; offset = String.length s })
  else Char.code s.[off]

let get_u32 s off what =
  if off + 4 > String.length s then
    fail (Truncated { what; offset = String.length s });
  let v = ref 0 in
  for i = 0 to 3 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

let get_u64 s off what =
  if off + 8 > String.length s then
    fail (Truncated { what; offset = String.length s });
  if Char.code s.[off] <> 0 then
    fail (Malformed (Printf.sprintf "%s: 64-bit field out of range" what));
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

(* Header and section table; raises [Fail] — nothing can be salvaged
   when the table itself is unreadable. *)
let parse_header s =
  let len = String.length s in
  if len < String.length magic then begin
    if String.sub magic 0 len = s then
      fail (Truncated { what = "magic"; offset = len })
    else fail Not_wet
  end;
  if String.sub s 0 (String.length magic) <> magic then fail Not_wet;
  let v = get_u32 s 8 "version field" in
  if v <> format_version then fail (Bad_version v);
  let tier =
    match get_u8 s 12 "tier byte" with
    | 1 -> `Tier1
    | 2 -> `Tier2
    | t -> fail (Malformed (Printf.sprintf "unknown tier %d" t))
  in
  ignore (get_u8 s 13 "flags byte");
  let count = get_u32 s 14 "section count" in
  if count < 1 || count > 64 then
    fail (Malformed (Printf.sprintf "unreasonable section count %d" count));
  let pos = ref header_size in
  let entry () =
    let nl = get_u8 s !pos "section table" in
    if nl < 1 || nl > 64 then
      fail (Malformed "section name length outside [1,64]");
    if !pos + 1 + nl > len then
      fail (Truncated { what = "section table"; offset = len });
    let name = String.sub s (!pos + 1) nl in
    let off = get_u64 s (!pos + 1 + nl) "section table" in
    let slen = get_u64 s (!pos + 1 + nl + 8) "section table" in
    let crc = get_u32 s (!pos + 1 + nl + 16) "section table" in
    pos := !pos + 1 + nl + 20;
    (name, off, slen, crc)
  in
  let entries = ref [] in
  for _ = 1 to count do
    entries := entry () :: !entries
  done;
  (tier, List.rev !entries, !pos)

let section_status s ~table_end (name, off, slen, crc) =
  let len = String.length s in
  let fault =
    if off < table_end || slen < 0 then
      Some
        (Malformed
           (Printf.sprintf "section '%s' extent [%d,+%d) overlaps the header"
              name off slen))
    else if off + slen > len then
      Some
        (Truncated
           { what = Printf.sprintf "section '%s'" name; offset = len })
    else
      let actual = Crc32.sub s ~pos:off ~len:slen in
      if actual <> crc then
        Some
          (Bad_section
             { name; offset = off; length = slen; expected_crc = crc;
               actual_crc = actual })
      else None
  in
  { sec_name = name; sec_offset = off; sec_length = slen; sec_crc = crc;
    sec_fault = fault }

let footer_status s =
  let len = String.length s in
  if len < header_size + footer_size then
    Some (Truncated { what = "footer"; offset = len })
  else if
    String.sub s (len - footer_size) (String.length footer_magic)
    <> footer_magic
  then Some (Truncated { what = "footer"; offset = len })
  else begin
    let stored =
      try get_u32 s (len - 4) "footer" with Fail f -> raise (Fail f)
    in
    let actual = Crc32.sub s ~pos:0 ~len:(len - footer_size) in
    if stored <> actual then
      Some (Bad_footer { expected_crc = stored; actual_crc = actual })
    else None
  end

let examine_exn s =
  let tier, entries, table_end = parse_header s in
  let sections = List.map (section_status s ~table_end) entries in
  {
    hl_version = format_version;
    hl_tier = tier;
    hl_file_bytes = String.length s;
    hl_sections = sections;
    hl_footer = footer_status s;
  }

let examine s = try Ok (examine_exn s) with Fail f -> Error f

(* ------------------------------------------------------------------ *)
(* Assembly                                                           *)
(* ------------------------------------------------------------------ *)

let decode_exn ~salvage s =
  let health = examine_exn s in
  if not salvage then begin
    List.iter
      (fun st -> match st.sec_fault with Some f -> fail f | None -> ())
      health.hl_sections;
    match health.hl_footer with Some f -> fail f | None -> ()
  end;
  let find name =
    List.find_opt (fun st -> st.sec_name = name) health.hl_sections
  in
  let unmarshal name st =
    try Marshal.from_string (String.sub s st.sec_offset st.sec_length) 0
    with _ ->
      fail
        (Malformed
           (Printf.sprintf "section '%s' does not unmarshal (version skew?)"
              name))
  in
  let req name =
    match find name with
    | Some ({ sec_fault = None; _ } as st) -> unmarshal name st
    | Some { sec_fault = Some f; _ } -> fail f
    | None ->
      fail (Malformed (Printf.sprintf "required section '%s' missing" name))
  in
  let damage = ref [] in
  let mark name = if not (List.mem name !damage) then damage := name :: !damage in
  (* A salvageable section: absent (omitted by an earlier salvage save)
     or damaged means placeholder + damage mark; damage in strict mode
     was already raised above. *)
  let opt name ~default ~use =
    match find name with
    | Some ({ sec_fault = None; _ } as st) -> (
      try use (unmarshal name st)
      with Fail f -> if salvage then (mark name; default ()) else fail f)
    | Some { sec_fault = Some f; _ } ->
      if salvage then (mark name; default ()) else fail f
    | None ->
      mark name;
      default ()
  in
  let meta : meta = req "meta" in
  let program : Wet_ir.Program.t = req "program" in
  if Wet_ir.Validate.errors program <> [] then
    fail (Malformed "program fails validation");
  let analysis =
    try Wet_cfg.Program_analysis.of_program program
    with Invalid_argument m | Failure m ->
      fail (Malformed ("program does not analyse: " ^ m))
    | Not_found -> fail (Malformed "program does not analyse")
  in
  let nodes : Wet.node array = req "graph.nodes" in
  let nnodes = Array.length nodes in
  let ncopies =
    Array.fold_left (fun a (n : Wet.node) -> a + Array.length n.Wet.n_stmts)
      0 nodes
  in
  let nodes =
    opt "labels.ts"
      ~default:(fun () -> nodes)
      ~use:(fun (ts : Wet.seq array) ->
        if Array.length ts <> nnodes then
          fail (Malformed "labels.ts disagrees with the node count");
        Array.mapi (fun i n -> { n with Wet.n_ts = ts.(i) }) nodes)
  in
  let copy_uvals =
    opt "labels.values"
      ~default:(fun () -> Array.make ncopies None)
      ~use:(fun (u : Wet.seq option array) ->
        if Array.length u <> ncopies then
          fail (Malformed "labels.values disagrees with the copy count");
        u)
  in
  let nodes, copy_deps =
    opt "labels.deps"
      ~default:(fun () -> (nodes, Array.make ncopies [||]))
      ~use:(fun ((cd, d) : Wet.dep_source array array
                            * Wet.dep_source array array) ->
        if Array.length cd <> nnodes then
          fail (Malformed "labels.deps disagrees with the node count");
        if Array.length d <> ncopies then
          fail (Malformed "labels.deps disagrees with the copy count");
        (Array.mapi (fun i n -> { n with Wet.n_cd = cd.(i) }) nodes, d))
  in
  let w =
    try
      Wet.make ~program ~analysis ~nodes ~copy_uvals ~copy_deps
        ~first_node:meta.m_first ~last_node:meta.m_last ~stats:meta.m_stats
        ~tier:health.hl_tier
        ~damage:(List.sort_uniq compare (meta.m_damage @ !damage))
    with Invalid_argument m -> fail (Malformed m)
  in
  (w, health)

let decode ?(salvage = false) s =
  try Ok (decode_exn ~salvage s) with Fail f -> Error f
