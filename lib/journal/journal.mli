(** The crash-safe checkpoint journal behind durable streaming builds.

    A journal is an append-only file of tagged records, each individually
    CRC-32'd and fsync'd before the append returns: after a process death
    at {e any} byte — mid-record included — the on-disk prefix up to the
    last intact record is trustworthy, and everything after it is
    detectably torn. The builder appends one header record (program,
    input, build configuration) when a checkpointed build starts and one
    checkpoint record (the sink's snapshot, which holds its resume
    watermark) per flushed shard; recovery reads the longest intact prefix, restores the last
    checkpoint, and re-executes deterministically past it.

    This module knows nothing about what the payloads mean — it owns the
    framing, the durability discipline, and the seeded process-kill hooks
    the kill-campaign harness arms (the journal-side mirror of
    [Store.crash_after]).

    Format: an 8-byte magic ["WETJRNL1"], then records. Each record is a
    1-byte tag, a 4-byte little-endian payload length, a 4-byte
    little-endian CRC-32 of the payload, and the payload bytes.

    Failures raise [Wet_error.Error] with stage [Journal] (writer side)
    or return [Error] (reader side, where a damaged file is an expected
    input, not a bug). *)

(** {1 Kill injection}

    Deterministic stand-ins for [kill -9] at a seeded point, so the
    crash campaign replays exactly. Both hooks disarm themselves when
    they fire. *)

(** Raised by {!append} when an armed kill hook fires. The CLI maps it
    to exit code 70 so campaigns can tell an injected death from a real
    failure. *)
exception Kill_injected

(** When [Some n], the [n]-th subsequent {!append} completes durably
    (record written and fsync'd) and then raises {!Kill_injected};
    [Some 0] kills the next append before it writes anything. *)
val kill_after_records : int option ref

(** When [Some b], raise {!Kill_injected} once [b] more bytes have been
    written: the append that crosses the budget writes only the
    remaining prefix of its record (fsync'd — a genuinely torn record
    reaches the disk) and raises. *)
val kill_after_bytes : int option ref

(** {1 Writing} *)

type writer

(** [create path] truncates or creates [path], writes the magic and
    fsyncs. The containing directory must exist. *)
val create : string -> writer

(** [append w ~tag payload] frames, writes and fsyncs one record
    ([tag] in 0..255). Durable when it returns. Honours the kill
    hooks. *)
val append : writer -> tag:int -> string -> unit

val close : writer -> unit

(** [reopen path ~at] truncates [path] to [at] bytes (discarding a torn
    tail reported by {!read}) and returns a writer positioned to append
    after the surviving records. *)
val reopen : string -> at:int -> writer

(** {1 Reading} *)

type record = { tag : int; payload : string }

type scan = {
  records : record list;  (** intact records, in append order *)
  torn : bool;
      (** the file ends in a partial or CRC-corrupt record — expected
          after a kill mid-append; the tail must be discarded, never
          trusted *)
  intact_bytes : int;
      (** file offset one past the last intact record — pass to
          {!reopen} to resume appending *)
}

(** [read path] scans the journal sequentially, stopping at the first
    damaged record. [Error] only for a missing, unreadable or
    non-journal file; torn tails are reported in the {!scan}. *)
val read : string -> (scan, string) result

(** {1 Recovery metrics}

    Recorded by the resume path; documented in [Metric_docs]. *)

(** Bump [journal.replayed_shards] — shards the recovery fast-forwarded
    through instead of rebuilding. *)
val note_replayed_shards : int -> unit

(** Set the [journal.resume_ms] gauge — wall time from the start of the
    resumed run until re-execution caught up with the watermark. *)
val note_resume_ms : float -> unit
