(** The sectioned, checksummed WET container format (version 8).

    The first format was a bare [Marshal] dump behind an 8-byte magic:
    one flipped bit meant [Failure], garbage data, or a segfault deep
    inside the unmarshaller. Since version 2 a container is
    self-describing — a fixed header (magic, version, tier, flags), a
    section table with one entry per logical payload (offset, length,
    CRC-32), the payloads, and a whole-file footer checksum — so a
    damaged file is {e diagnosable}: corruption is detected before
    unmarshalling and attributed to the section it hit, and every
    intact section can still be loaded. Each later version fences off
    payloads whose marshalled shape changed (a CRC cannot catch that
    mismatch): v3 added stream telemetry, v4 split a stream into body
    and default cursor, v5 made a stream its bare body, v6 dropped a
    packed stream's traversal counters, v7 stores each fact once in six
    sections, and v8 stores each sequence once, with the value patterns
    beside the unique values. Older versions are refused with a message
    to rebuild.

    Layout (all integers big-endian):
    {v
    0   "WETOCaml"                      8-byte magic
    8   version                         u32 (= 8)
    12  tier                            u8 (1 | 2)
    13  flags                           u8 (reserved, 0)
    14  section count                   u32
    18  table: per section
          name length  u8
          name         bytes
          offset       u64   (absolute file offset of the payload)
          length       u64
          crc32        u32   (of the payload bytes)
    ..  payloads, concatenated in table order
    end "WETF" + u32 crc32 of every byte before the footer
    v}

    Sections, in file order (the required ones first, so a truncated
    tail loses only salvageable data):
    {ul
    {- [meta] (required): first and last node, build statistics, and
       the damage an earlier salvage recorded;}
    {- [program] (required): the program the trace ran;}
    {- [graph.nodes] (required): the nodes, which hold no stream;}
    {- [labels.ts]: each node's timestamp stream;}
    {- [labels.values]: each group's pattern and each copy's unique
       values;}
    {- [labels.deps]: each node's control sources and each copy's
       dependence slots, in one payload, so a label record both share
       is stored once.}}
    Each payload is Marshal-encoded individually, so a bad section is
    isolated, and a body several owners of one stream class share is
    stored once. Nothing derivable is stored: the loader derives the
    program's analysis ({!Wet_cfg.Program_analysis.of_program}, once
    the program passes {!Wet_ir.Validate}) and the predecessors, copy
    tables and indexes ({!Wet.make}), with the code that built them. A
    lost salvageable section is replaced by placeholders and recorded
    in {!Wet.t.damage}. Saving a salvaged WET omits its damaged sections
    and records them in [meta], so damage survives round trips
    honestly. *)

(** Why a container (or one of its sections) cannot be trusted. *)
type fault =
  | Not_wet  (** the leading magic is absent *)
  | Bad_version of int  (** including legacy v1 monolithic files *)
  | Truncated of { what : string; offset : int }
      (** the file ends (at [offset]) inside [what] *)
  | Bad_section of {
      name : string;
      offset : int;
      length : int;
      expected_crc : int;
      actual_crc : int;
    }  (** a section's payload fails its CRC *)
  | Bad_footer of { expected_crc : int; actual_crc : int }
      (** sections pass but the whole-file checksum does not (header or
          table corruption) *)
  | Malformed of string  (** structurally impossible field values *)

(** One line of human-readable diagnosis, e.g.
    ["section 'labels.values' corrupt (crc mismatch at offset 812, 4096
    bytes: expected 0x1c291ca3, got 0x5d3f00c1)"]. *)
val fault_message : fault -> string

type section_status = {
  sec_name : string;
  sec_offset : int;
  sec_length : int;
  sec_crc : int;  (** the stored checksum *)
  sec_fault : fault option;  (** [None] = intact *)
}

(** The fsck view of a container: everything learnable without
    unmarshalling a byte. *)
type health = {
  hl_version : int;
  hl_tier : [ `Tier1 | `Tier2 ];
  hl_file_bytes : int;
  hl_sections : section_status list;  (** in table order *)
  hl_footer : fault option;
}

val format_version : int

(** Sections without which no WET can be assembled. *)
val required : string -> bool

(** Serialize a WET (either tier) to container bytes. Sections named in
    [w.damage] are omitted and recorded in the [meta] section. *)
val encode : Wet.t -> string

(** Checksum-check the container without unmarshalling anything.
    [Error] only for header-level faults (bad magic / version /
    truncated header or table) that prevent enumerating sections. *)
val examine : string -> (health, fault) result

(** Parse, verify, and assemble. Strict mode ([salvage = false], the
    default) returns the first fault found — section faults in table
    order, then the footer. With [~salvage:true], every intact section
    is loaded, damaged salvageable sections become placeholders recorded
    in {!Wet.t.damage}, and only a fault in a {!required} section (or
    the header) is an error. In both modes, checksummed sections that
    disagree with each other (tables with a row count other than their
    owners', node copy ranges that do not tile the copies, successors,
    statements, group members, edge endpoints, [Local]
    producers or the first or last node out of range, a program that
    fails validation) are
    [Error (Malformed _)], never an exception. No cursor is moved. *)
val decode : ?salvage:bool -> string -> (Wet.t * health, fault) result
