module W = Wet_core.Wet
module Query = Wet_core.Query

let histogram wet =
  let counts = Hashtbl.create 1024 in
  let total =
    Query.Session.load_values (W.open_session wet) ~f:(fun _ v ->
        Hashtbl.replace counts v
          (1 + Option.value (Hashtbl.find_opt counts v) ~default:0))
  in
  (counts, total)

let frequent ?(top = 8) wet =
  let counts, _ = histogram wet in
  Hashtbl.fold (fun v c acc -> (v, c) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < top)

let coverage wet ~top =
  let counts, total = histogram wet in
  if total = 0 then 0.
  else begin
    let covered =
      Hashtbl.fold (fun _ c acc -> c :: acc) counts []
      |> List.sort (fun a b -> compare b a)
      |> List.filteri (fun i _ -> i < top)
      |> List.fold_left ( + ) 0
    in
    float_of_int covered /. float_of_int total
  end
