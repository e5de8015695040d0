(** Saving WETs to disk and loading them back.

    The paper's premise is a tool for the {e collection and maintenance}
    of whole execution traces; persistence makes the collected WETs
    reusable across analysis sessions. The on-disk form is the sectioned,
    checksummed {!Container} format: every logical payload carries its
    own CRC-32, so corruption is detected before unmarshalling and
    attributed to the section it hit.

    Saves are atomic (temp file in the destination directory, fsync,
    rename): an interrupted save never damages an existing file. A WET
    holds no traversal state (cursors live in {!Wet.session}s), so the
    bytes written are a deterministic function of the trace regardless
    of prior query activity. *)

(** Raised by {!load} on a damaged or alien file; [fault] says exactly
    what is wrong and where. *)
exception Corrupt of { path : string; fault : Container.fault }

(** ["<path>: section 'labels.values' corrupt (crc mismatch at offset
    N, ...)"] — the rendering used by [wet_cli]. *)
val corrupt_message : path:string -> Container.fault -> string

(** [save wet path] writes the WET (either tier) atomically. Sections
    named in [wet.damage] (from a prior salvage load) are omitted and
    recorded in the container's metadata. *)
val save : Wet.t -> string -> unit

(** [load path] reads a WET saved by {!save}. Strict by default: any
    checksum or structural fault raises {!Corrupt}. With
    [~salvage:true], intact sections are loaded, damaged salvageable
    sections become placeholders recorded in [Wet.t.damage], and only
    header-level or required-section faults raise. I/O failures
    ([Sys_error]) propagate as themselves; no raw [End_of_file] or
    [Failure] ever escapes.
    @raise Corrupt on a damaged, truncated, legacy-version, or non-WET
    file. *)
val load : ?salvage:bool -> string -> Wet.t

(** Test hook for torn-write simulation: when [Some n], {!save} raises
    {!Crash_injected} after writing [n] bytes of the temp file, leaving
    the temp file behind and the destination untouched. Reset to [None]
    by {!save} on entry to the crash path. *)
val crash_after : int option ref

exception Crash_injected

(** [orphan_temps path] lists the [.<basename>.*.tmp] staging files a
    crashed {!save} of [path] may have stranded in [path]'s directory,
    sorted, as full paths. They are harmless to {!load} but worth
    sweeping ([wet fsck] reports them; [--gc] removes them). An
    unreadable directory yields []. *)
val orphan_temps : string -> string list

(** [remove_orphans path] deletes {!orphan_temps}[ path] (ignoring
    files that vanish concurrently) and returns what it targeted. *)
val remove_orphans : string -> string list
