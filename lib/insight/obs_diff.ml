(* A/B comparison of two instrument snapshots, the logic behind
   `wet obs diff`. Kept in the library so the zero-overlap case — two
   exports with no instrument in common must be reported as such, not
   as "nothing changed" — is pinned by a unit test. *)

type row = {
  d_name : string;
  d_kind : string;
  d_a : int;
  d_b : int;
  d_rel : float;  (* signed relative change, vs max 1 |a| *)
}

type t = {
  d_overlap : int;
  d_changed : row list;  (* sorted by |d_rel| descending, then name *)
  d_only_a : string list;
  d_only_b : string list;
}

let diff a b =
  let in_b = Hashtbl.create 64 in
  List.iter (fun (name, r) -> Hashtbl.replace in_b name r) b;
  let overlap = ref 0 in
  let changed =
    List.filter_map
      (fun (name, ra) ->
        match Hashtbl.find_opt in_b name with
        | None -> None
        | Some rb ->
          incr overlap;
          let va = Obs_read.volume ra and vb = Obs_read.volume rb in
          if va = vb then None
          else
            Some
              {
                d_name = name;
                d_kind = Obs_read.kind ra;
                d_a = va;
                d_b = vb;
                d_rel = float_of_int (vb - va) /. float_of_int (max 1 (abs va));
              })
      a
    |> List.sort (fun x y ->
           compare (abs_float y.d_rel, x.d_name) (abs_float x.d_rel, y.d_name))
  in
  let only xs ys =
    let have = Hashtbl.create 64 in
    List.iter (fun (name, _) -> Hashtbl.replace have name ()) ys;
    List.filter (fun n -> not (Hashtbl.mem have n)) (List.map fst xs)
  in
  {
    d_overlap = !overlap;
    d_changed = changed;
    d_only_a = only a b;
    d_only_b = only b a;
  }
