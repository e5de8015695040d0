(** Size accounting for the paper's Tables 1–3 and Figure 8.

    "Original" sizes follow the paper's uncompressed model: a 4-byte
    timestamp per {e statement} execution (each statement instance is
    labeled [<ts, val>] in §2; Table 2's arithmetic is ~4 bytes of
    timestamp per executed statement), a 4-byte value per def-port
    statement execution, and an 8-byte timestamp pair per dynamic
    dependence (data, per operand; control, per statement). "Current" sizes measure
    the WET as it stands — tier-1 when label streams are raw, tier-2
    after {!Builder.pack} — using the analytic bit counts of
    {!Wet_bistream.Stream.bits}, with each distinct body of a stream
    class counted once, however many owners share it. *)

type breakdown = {
  ts_bytes : float;  (** node timestamp labels *)
  vals_bytes : float;  (** node value labels (UVals + patterns) *)
  edge_bytes : float;  (** dependence edge labels *)
  total_bytes : float;
}

(** Uncompressed WET size (paper's "Orig."). *)
val original : Wet.t -> breakdown

(** Size of the representation as currently stored. Derived from
    {!detail}, so the two always agree to the bit. *)
val current : Wet.t -> breakdown

(** Per-stream-class accounting behind {!current} — the paper-style
    per-stream view that `wet stats` prints. *)
type stream_class = {
  sc_kind : string;
      (** ["ts"], ["uvals"], ["pattern"], ["label.src"] or ["label.dst"] *)
  sc_streams : int;  (** distinct bodies of this class *)
  sc_values : int;  (** values across those streams *)
  sc_bits : int;  (** analytic stored bits ({!Wet_bistream.Stream.bits}) *)
  sc_raw_bits : int;  (** 32 bits per value, the tier-1 cost *)
  sc_lookups : int;  (** predictor lookups (0 for raw streams) *)
  sc_hits : int;  (** predictor hits *)
  sc_methods : (string * int) list;
      (** method name -> stream count, sorted by name *)
}

type detail = {
  d_classes : stream_class list;  (** fixed order: the five kinds above *)
  d_total_bits : int;  (** sum of [sc_bits]; [= 8 * current.total_bytes] *)
}

val detail : Wet.t -> detail

(** [shared_label_bodies t] is [(consumer, producer)]: per label side,
    the values that body sharing stores once, which is the values of
    the distinct label records' sides less the values of the distinct
    bodies, both counted by physical identity. Records reused by edges
    between one node pair (paper §3.3) are counted apart, in
    [Wet.stats.shared_label_values]. *)
val shared_label_bodies : Wet.t -> int * int

(** [mb b] converts bytes to the paper's megabyte unit. *)
val mb : float -> float
