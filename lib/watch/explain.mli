(** Query-explain: which compressed streams a query touched, and how.

    When armed, the query and slice code reports every cursor movement
    here; the resulting report shows which label streams a query walked,
    in which directions, and how many decompression steps it paid — the
    observable cost model behind the paper's tier-1 vs tier-2 query
    timing tables. Disarmed cost is one flag read per cursor operation.

    Recordings live in {!recorder} values. Each [Wet.Session] owns one
    (single-owner, like the session itself), so concurrent sessions can
    explain queries without interleaving; the CLI's [--explain] reports
    its command's session recorder. *)

(** Identity of a WET label stream. *)
type stream =
  | Ts of int  (** timestamp sequence of a node *)
  | Uvals of int  (** unique-value sequence of a copy *)
  | Pattern of int * int  (** shared value pattern of (node, group) *)
  | Label_src of int  (** producer side of edge-label [l_id] *)
  | Label_dst of int  (** consumer side of edge-label [l_id] *)

(** The class of a stream, without its ids: what {!touch} takes, so
    naming the stream a step lands on allocates nothing. *)
type kind =
  | K_ts  (** {!Ts} *)
  | K_uvals  (** {!Uvals} *)
  | K_pattern  (** {!Pattern} *)
  | K_label_src  (** {!Label_src} *)
  | K_label_dst  (** {!Label_dst} *)

type op =
  | Fwd  (** forward cursor steps *)
  | Bwd  (** backward cursor steps *)
  | Seek  (** one repositioning; the count is the seek distance *)

(** One independent explain recording: armed flag, per-stream tallies,
    query names. {!arm}, {!reset} and {!report} cost O(streams touched
    since the last reset). Not thread-safe — single-owner. *)
type recorder

(** A fresh, disarmed recorder. *)
val make_recorder : unit -> recorder

(** Is this recorder currently armed? The per-session guard for
    instrumentation sites: [if Ex.recording r then touch ~recorder:r ...]. *)
val recording : recorder -> bool

(** Clear recorded state and start recording. *)
val arm : recorder:recorder -> unit

(** Stop recording; what was recorded stays until the next {!arm} or
    {!reset}. *)
val disarm : recorder:recorder -> unit

(** Clear recorded state, armed or not. *)
val reset : recorder:recorder -> unit

(** [touch ~recorder kind a b op n] records [n] cursor steps (or one
    seek of distance [n]) on the stream of class [kind] with id [a] —
    the node, copy or label id — and [b], the group of a {!K_pattern}
    stream and 0 for the other kinds. No-op when the recorder is
    disarmed or [n < 0].

    A step on a stream already touched since the last {!arm} or
    {!reset} allocates and hashes nothing: the recorder keeps its
    tallies in dense per-kind tables indexed by the ids, grown on a
    stream's first step. The recorder is a required argument because
    an optional one would be boxed at every call. Ids must be
    non-negative; [Invalid_argument] otherwise. *)
val touch : recorder:recorder -> kind -> int -> int -> op -> int -> unit

(** Note a query entry point (e.g. ["query.control_flow"]). *)
val query : recorder:recorder -> string -> unit

type stream_stats = {
  e_stream : stream;
  e_fwd : int;
  e_bwd : int;
  e_seeks : int;
  e_seek_dist : int;  (** summed seek distances *)
  e_switches : int;  (** forward/backward direction reversals *)
}

type report = { r_queries : string list; r_streams : stream_stats list }

(** Snapshot of everything recorded since {!arm} (streams sorted). *)
val report : recorder:recorder -> report

(** {!report}, with the tallies also folded into the [wet_obs]
    instruments ([explain.streams], [explain.fwd_steps],
    [explain.bwd_steps], [explain.seeks], [explain.seek_distance],
    [explain.dir_switches]) and one [explain.stream_steps] histogram
    observation per touched stream — no-ops while the sink is disabled.
    This is the bridge between per-query explain profiles and the bench
    observatory's metric exports. *)
val publish : recorder:recorder -> report

val stream_kind : stream -> string
val stream_name : stream -> string

(** Steps paid on one stream: forward + backward + seek distance. *)
val steps : stream_stats -> int

val total_steps : report -> int

(** [diff ~before ~after] is the work recorded between two {!report}
    snapshots of one continuously armed window: per-stream field-wise
    subtraction (streams absent from [before] count from zero, all-zero
    rows dropped) and the query names appended after [before] was taken.
    [Wet_qprof] uses this so nested profiling contexts each claim their
    own slice of a single armed recording. *)
val diff : before:report -> after:report -> report

(** Aggregated per {!stream_kind}:
    [(kind, (streams, fwd, bwd, seeks, switches))], sorted. *)
val by_kind : report -> (string * (int * int * int * int * int)) list
