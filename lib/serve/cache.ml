module W = Wet_core.Wet
module Store = Wet_core.Store

type entry = {
  e_path : string;
  e_wet : W.t;
  e_damage : string list;
  mutable e_stamp : int;
  mutable e_requests : int;
}

type t = {
  cap : int;
  tbl : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity () =
  { cap = max 1 capacity; tbl = Hashtbl.create 8; clock = 0; hits = 0;
    misses = 0; evictions = 0 }

let capacity t = t.cap

let stats t = (t.hits, t.misses, t.evictions)

let resident t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl []
  |> List.sort (fun a b -> compare b.e_stamp a.e_stamp)

let touch t e =
  t.clock <- t.clock + 1;
  e.e_stamp <- t.clock;
  e.e_requests <- e.e_requests + 1

let evict_lru t =
  match List.rev (resident t) with
  | [] -> ()
  | lru :: _ ->
    Hashtbl.remove t.tbl lru.e_path;
    t.evictions <- t.evictions + 1

let load path =
  if not (Filename.check_suffix path ".wet") then
    Error (Printf.sprintf "%s: not a .wet container" path)
  else
    match Store.load path with
    | wet -> Ok wet
    | exception Store.Corrupt { path; fault } ->
      Error (Store.corrupt_message ~path fault)
    | exception (Sys_error m | Invalid_argument m) -> Error m
    | exception Wet_error.Error e -> Error (Wet_error.message e)

let peek t path = Hashtbl.find_opt t.tbl path

let find t path =
  match Hashtbl.find_opt t.tbl path with
  | Some e ->
    t.hits <- t.hits + 1;
    touch t e;
    Ok e
  | None ->
    t.misses <- t.misses + 1;
    (match load path with
     | Error _ as e -> e
     | Ok wet ->
       (* one validation sweep at admission: queries after this trust
          the flags instead of re-walking the invariants per request *)
       let damage = W.validate wet in
       if Hashtbl.length t.tbl >= t.cap then evict_lru t;
       let e =
         { e_path = path; e_wet = wet; e_damage = damage; e_stamp = 0;
           e_requests = 0 }
       in
       touch t e;
       Hashtbl.add t.tbl path e;
       Ok e)
