let memo (type a b) ~equal ~hash (f : a -> b) =
  let module T = Hashtbl.Make (struct
    type t = a

    let equal = equal

    let hash = hash
  end) in
  let results = T.create 256 in
  fun x ->
    match T.find_opt results x with
    | Some y -> y
    | None ->
      let y = f x in
      T.add results x y;
      y

let by_identity f = memo ~equal:( == ) ~hash:Hashtbl.hash f
