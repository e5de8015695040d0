module Wet = Wet_core.Wet
module Sizes = Wet_core.Sizes
module Table = Wet_report.Table

type t = {
  rp_label : string;
  rp_tier : string;
  rp_damage : string list;
  rp_stmts : int;
  rp_orig : Sizes.breakdown;
  rp_current : Sizes.breakdown;
  rp_detail : Sizes.detail;
}

let of_wet ~label (w : Wet.t) =
  {
    rp_label = label;
    rp_tier = (match w.Wet.tier with `Tier1 -> "tier1" | `Tier2 -> "tier2");
    rp_damage = w.Wet.damage;
    rp_stmts = w.Wet.stats.Wet.stmts_executed;
    rp_orig = Sizes.original w;
    rp_current = Sizes.current w;
    rp_detail = Sizes.detail w;
  }

let method_mix (c : Sizes.stream_class) =
  match c.Sizes.sc_methods with
  | [] -> "-"
  | ms ->
    ms
    |> List.map (fun (m, n) ->
           if n = 1 then m else Printf.sprintf "%s x%d" m n)
    |> String.concat " "

let pct num den = if den = 0 then "-" else Table.f1 (100. *. float_of_int num /. float_of_int den)

let ratio_vs_raw (c : Sizes.stream_class) =
  if c.Sizes.sc_bits = 0 then "-"
  else Table.f2 (float_of_int c.Sizes.sc_raw_bits /. float_of_int c.Sizes.sc_bits)

let bits_per_value (c : Sizes.stream_class) =
  if c.Sizes.sc_values = 0 then "-"
  else Table.f2 (float_of_int c.Sizes.sc_bits /. float_of_int c.Sizes.sc_values)

let print r =
  let d = r.rp_detail in
  let rows =
    List.map
      (fun (c : Sizes.stream_class) ->
        [
          c.Sizes.sc_kind;
          Table.i c.Sizes.sc_streams;
          Table.i c.Sizes.sc_values;
          method_mix c;
          Table.i c.Sizes.sc_bits;
          bits_per_value c;
          ratio_vs_raw c;
          pct c.Sizes.sc_hits c.Sizes.sc_lookups;
        ])
      d.Sizes.d_classes
    @ [
        [
          "total";
          Table.i (List.fold_left (fun s c -> s + c.Sizes.sc_streams) 0 d.Sizes.d_classes);
          Table.i (List.fold_left (fun s c -> s + c.Sizes.sc_values) 0 d.Sizes.d_classes);
          "";
          Table.i d.Sizes.d_total_bits;
          "";
          "";
          "";
        ];
      ]
  in
  Table.print
    ~title:
      (Printf.sprintf "%s: per-stream breakdown (%s%s)" r.rp_label r.rp_tier
         (match r.rp_damage with
          | [] -> ""
          | ds -> Printf.sprintf ", damaged: %s" (String.concat "," ds)))
    ~header:
      [ "stream"; "streams"; "values"; "methods"; "bits"; "bits/val";
        "vs raw"; "hit%" ]
    rows;
  let summary =
    [
      [
        "orig (paper model)";
        (let o = r.rp_orig in
         Printf.sprintf "%s (ts %s, vals %s, edges %s)"
           (Table.f2 (Sizes.mb o.Sizes.total_bytes))
           (Table.f2 (Sizes.mb o.Sizes.ts_bytes))
           (Table.f2 (Sizes.mb o.Sizes.vals_bytes))
           (Table.f2 (Sizes.mb o.Sizes.edge_bytes)));
      ];
      [ "stored"; Table.f2 (Sizes.mb r.rp_current.Sizes.total_bytes) ];
      [
        "ratio";
        (if r.rp_current.Sizes.total_bytes = 0. then "-"
         else
           Table.f2 (r.rp_orig.Sizes.total_bytes /. r.rp_current.Sizes.total_bytes));
      ];
      [ "stmts executed"; Table.i r.rp_stmts ];
      [
        "bits/stmt";
        (if r.rp_stmts = 0 then "-"
         else
           Table.f2 (8. *. r.rp_current.Sizes.total_bytes /. float_of_int r.rp_stmts));
      ];
    ]
  in
  Table.print ~title:"summary" ~header:[ "metric"; "value" ] summary

let breakdown_json (b : Sizes.breakdown) =
  Json.Obj
    [
      ("ts_bytes", Json.Num b.Sizes.ts_bytes);
      ("vals_bytes", Json.Num b.Sizes.vals_bytes);
      ("edge_bytes", Json.Num b.Sizes.edge_bytes);
      ("total_bytes", Json.Num b.Sizes.total_bytes);
    ]

let class_json (c : Sizes.stream_class) =
  Json.Obj
    [
      ("kind", Json.Str c.Sizes.sc_kind);
      ("streams", Json.Num (float_of_int c.Sizes.sc_streams));
      ("values", Json.Num (float_of_int c.Sizes.sc_values));
      ("bits", Json.Num (float_of_int c.Sizes.sc_bits));
      ("raw_bits", Json.Num (float_of_int c.Sizes.sc_raw_bits));
      ("lookups", Json.Num (float_of_int c.Sizes.sc_lookups));
      ("hits", Json.Num (float_of_int c.Sizes.sc_hits));
      ( "methods",
        Json.Obj
          (List.map
             (fun (m, n) -> (m, Json.Num (float_of_int n)))
             c.Sizes.sc_methods) );
    ]

let to_json r =
  Json.Obj
    [
      ("label", Json.Str r.rp_label);
      ("tier", Json.Str r.rp_tier);
      ("damage", Json.Arr (List.map (fun d -> Json.Str d) r.rp_damage));
      ("stmts", Json.Num (float_of_int r.rp_stmts));
      ("orig", breakdown_json r.rp_orig);
      ("stored", breakdown_json r.rp_current);
      ( "streams",
        Json.Arr (List.map class_json r.rp_detail.Sizes.d_classes) );
      ("total_bits", Json.Num (float_of_int r.rp_detail.Sizes.d_total_bits));
    ]
