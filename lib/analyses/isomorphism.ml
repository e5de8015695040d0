module W = Wet_core.Wet
module Stream = Wet_bistream.Stream

type klass = {
  members : W.copy_id list;
  executions : int;
  distinct_values : int;
}

(* Equal unique-value sequences are one shared body, so a group's
   members partition by body. *)
let classes (t : W.t) =
  let out = ref [] in
  Array.iter
    (fun (n : W.node) ->
      Array.iter
        (fun members ->
          let buckets = ref [] in
          Array.iter
            (fun c ->
              Option.iter
                (fun s ->
                  match List.assq_opt s !buckets with
                  | Some l -> l := c :: !l
                  | None -> buckets := (s, ref [ c ]) :: !buckets)
                t.W.copy_uvals.(c))
            members;
          List.iter
            (fun (s, l) ->
              if List.compare_length_with !l 1 > 0 then
                out :=
                  {
                    members = List.rev !l;
                    executions = n.W.n_nexec;
                    distinct_values = Stream.length s;
                  }
                  :: !out)
            (List.rev !buckets))
        n.W.n_groups)
    t.W.nodes;
  !out

let summary (t : W.t) =
  let total_defs =
    Array.fold_left
      (fun acc uv -> match uv with Some _ -> acc + 1 | None -> acc)
      0 t.W.copy_uvals
  in
  let ks = classes t in
  let iso = List.fold_left (fun acc k -> acc + List.length k.members) 0 ks in
  let redundant =
    List.fold_left
      (fun acc k -> acc + ((List.length k.members - 1) * k.executions))
      0 ks
  in
  (iso, total_defs, redundant)
