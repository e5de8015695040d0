module Stream = Wet_bistream.Stream

type breakdown = {
  ts_bytes : float;
  vals_bytes : float;
  edge_bytes : float;
  total_bytes : float;
}

let make ts vals edges =
  { ts_bytes = ts; vals_bytes = vals; edge_bytes = edges;
    total_bytes = ts +. vals +. edges }

let original (t : Wet.t) =
  let s = t.Wet.stats in
  (* Per the WET definition (paper §2) every statement instance carries a
     timestamp and, if it has a def port, a value; the paper's Table 2
     arithmetic (~4 bytes of ts per executed statement) confirms the
     per-statement accounting. *)
  make
    (4. *. float_of_int s.Wet.stmts_executed)
    (4. *. float_of_int s.Wet.def_execs)
    (8. *. float_of_int (s.Wet.dep_instances + s.Wet.cd_instances))

type stream_class = {
  sc_kind : string;
  sc_streams : int;
  sc_values : int;
  sc_bits : int;
  sc_raw_bits : int;
  sc_lookups : int;
  sc_hits : int;
  sc_methods : (string * int) list;
}

type detail = { d_classes : stream_class list; d_total_bits : int }

(* One accumulator per stream class; [detail] counts each distinct body
   of a class once, however many owners share it. *)
type acc = {
  kind : string;
  mutable streams : int;
  mutable values : int;
  mutable a_bits : int;
  mutable lookups : int;
  mutable hits : int;
  methods : (string, int ref) Hashtbl.t;
}

let new_acc kind =
  {
    kind;
    streams = 0;
    values = 0;
    a_bits = 0;
    lookups = 0;
    hits = 0;
    methods = Hashtbl.create 8;
  }

let acc_stream a s =
  a.streams <- a.streams + 1;
  a.values <- a.values + Stream.length s;
  a.a_bits <- a.a_bits + Stream.bits s;
  let tl = Stream.telemetry s in
  a.lookups <- a.lookups + tl.Stream.tl_lookups;
  a.hits <- a.hits + tl.Stream.tl_hits;
  let m = Stream.method_name s in
  match Hashtbl.find_opt a.methods m with
  | Some r -> incr r
  | None -> Hashtbl.replace a.methods m (ref 1)

let close_acc a =
  {
    sc_kind = a.kind;
    sc_streams = a.streams;
    sc_values = a.values;
    sc_bits = a.a_bits;
    sc_raw_bits = 32 * a.values;
    sc_lookups = a.lookups;
    sc_hits = a.hits;
    sc_methods =
      Hashtbl.fold (fun m r l -> (m, !r) :: l) a.methods []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

let detail (t : Wet.t) =
  let ts = new_acc "ts" in
  let uvals = new_acc "uvals" in
  let pattern = new_acc "pattern" in
  let lsrc = new_acc "label.src" in
  let ldst = new_acc "label.dst" in
  let once a = Wet_util.Memo.by_identity (acc_stream a) in
  Array.iter (once ts) t.Wet.node_ts;
  Array.iter (Array.iter (Option.iter (once pattern))) t.Wet.node_patterns;
  Array.iter (Option.iter (once uvals)) t.Wet.copy_uvals;
  let add_src = once lsrc and add_dst = once ldst in
  let add_source = function
    | Wet.No_dep | Wet.Local _ -> ()
    | Wet.Remote es ->
      List.iter
        (fun (e : Wet.edge) ->
          add_src e.Wet.e_labels.Wet.l_src;
          add_dst e.Wet.e_labels.Wet.l_dst)
        es
  in
  Array.iter (Array.iter add_source) t.Wet.copy_deps;
  Array.iter (Array.iter add_source) t.Wet.node_cd;
  let classes = List.map close_acc [ ts; uvals; pattern; lsrc; ldst ] in
  {
    d_classes = classes;
    d_total_bits = List.fold_left (fun s c -> s + c.sc_bits) 0 classes;
  }

(* Derived from [detail] so the coarse and per-stream views agree to the
   bit by construction. Bit counts stay exact through the float division:
   they are far below 2^53. *)
let current (t : Wet.t) =
  let d = detail t in
  let bits_of kind =
    List.fold_left
      (fun s c -> if c.sc_kind = kind then s + c.sc_bits else s)
      0 d.d_classes
  in
  let bits_to_bytes b = float_of_int b /. 8. in
  make
    (bits_to_bytes (bits_of "ts"))
    (bits_to_bytes (bits_of "uvals" + bits_of "pattern"))
    (bits_to_bytes (bits_of "label.src" + bits_of "label.dst"))

let mb bytes = bytes /. (1024. *. 1024.)
