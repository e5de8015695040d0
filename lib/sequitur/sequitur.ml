(* A direct port of the canonical Sequitur implementation: doubly linked
   symbol lists with guard nodes, a digram index, and the two invariants
   (digram uniqueness, rule utility) restored after every append. *)

type sym = {
  mutable term : int;  (* terminal payload; meaningless for nonterminals *)
  mutable nt : rule option;  (* Some r = nonterminal referencing r *)
  mutable guard : rule option;  (* Some r = guard node of r *)
  mutable prev : sym;
  mutable next : sym;
}

and rule = {
  id : int;
  mutable g : sym;  (* guard; g.next = first, g.prev = last *)
  mutable uses : int;
  mutable dead : bool;
}

type t = {
  start : rule;
  mutable rules : rule list;  (* all ever created; dead ones flagged *)
  index : (int * int * int * int, sym) Hashtbl.t;
  mutable next_id : int;
  (* Always-on inference telemetry (never marshalled; grammars are
     serialised through [rule_stats]/[expand], not [t]). *)
  mutable n_input : int;  (* terminals appended *)
  mutable n_digram_hits : int;  (* digram seen before -> match_digram *)
  mutable n_digram_misses : int;  (* fresh digram indexed *)
  mutable n_rules_created : int;  (* via new_rule (start excluded) *)
  mutable n_rules_inlined : int;  (* rule-utility expansions *)
}

let rec dummy =
  { term = 0; nt = None; guard = None; prev = dummy; next = dummy }

let new_rule t =
  let g = { term = 0; nt = None; guard = None; prev = dummy; next = dummy } in
  let r = { id = t.next_id; g; uses = 0; dead = false } in
  g.guard <- Some r;
  g.prev <- g;
  g.next <- g;
  t.next_id <- t.next_id + 1;
  t.rules <- r :: t.rules;
  t.n_rules_created <- t.n_rules_created + 1;
  r

let is_guard s = s.guard <> None

let key_of s s' =
  let k x = match x.nt with Some r -> (1, r.id) | None -> (0, x.term) in
  let a, b = k s and c, d = k s' in
  (a, b, c, d)

(* Remove the digram starting at [s] from the index, if the index entry
   is this very occurrence. *)
let delete_digram t s =
  if s.next != dummy && (not (is_guard s)) && not (is_guard s.next) then begin
    let key = key_of s s.next in
    match Hashtbl.find_opt t.index key with
    | Some m when m == s -> Hashtbl.remove t.index key
    | Some _ | None -> ()
  end

(* Symbols that stand for the same grammar symbol. *)
let same_sym a b =
  (not (is_guard a))
  && (not (is_guard b))
  &&
  match (a.nt, b.nt) with
  | Some r1, Some r2 -> r1 == r2
  | None, None -> a.term = b.term
  | Some _, None | None, Some _ -> false

let join t left right =
  if left.next != dummy then begin
    delete_digram t left;
    (* The canonical triple handling: unlinking inside a run of equal
       symbols (e.g. [a a a]) displaces digram occurrences the index
       must keep pointing at. *)
    if right.prev != dummy && right.next != dummy
       && same_sym right right.prev && same_sym right right.next
    then Hashtbl.replace t.index (key_of right right.next) right;
    if left.prev != dummy && left.next != dummy
       && same_sym left left.next && same_sym left left.prev
    then Hashtbl.replace t.index (key_of left.prev left) left.prev
  end;
  left.next <- right;
  right.prev <- left

let insert_after t s x =
  join t x s.next;
  join t s x

(* Unlink [s]; maintains use counts of referenced rules. *)
let remove_symbol t s =
  join t s.prev s.next;
  delete_digram t s;
  match s.nt with
  | Some r -> r.uses <- r.uses - 1
  | None -> ()

let mk_term v =
  { term = v; nt = None; guard = None; prev = dummy; next = dummy }

let mk_nt r =
  r.uses <- r.uses + 1;
  { term = 0; nt = Some r; guard = None; prev = dummy; next = dummy }

let copy_sym s = match s.nt with Some r -> mk_nt r | None -> mk_term s.term

(* [check] and [match_digram] are mutually recursive with [expand_rule]
   through substitution. *)
let rec check t s =
  if is_guard s || is_guard s.next then false
  else begin
    let key = key_of s s.next in
    match Hashtbl.find_opt t.index key with
    | None ->
      Hashtbl.replace t.index key s;
      t.n_digram_misses <- t.n_digram_misses + 1;
      false
    | Some m when m == s || m.next == s || m == s.next -> false
    | Some m ->
      t.n_digram_hits <- t.n_digram_hits + 1;
      match_digram t s m;
      true
  end

and match_digram t s m =
  let r =
    if is_guard m.prev && is_guard m.next.next then begin
      (* m's whole rule is exactly this digram: reuse it *)
      let r = match m.prev.guard with Some r -> r | None -> assert false in
      substitute t s r;
      r
    end
    else begin
      let r = new_rule t in
      (* rule body = copies of the digram *)
      insert_after t r.g (copy_sym s);
      insert_after t r.g.next (copy_sym s.next);
      substitute t m r;
      substitute t s r;
      Hashtbl.replace t.index (key_of r.g.next r.g.next.next) r.g.next;
      r
    end
  in
  (* rule utility: inline rules that are now used only once *)
  match r.g.next.nt with
  | Some r' when r'.uses = 1 -> expand_rule t r.g.next
  | Some _ | None -> ()

(* Replace the digram starting at [s] by a reference to [r]. *)
and substitute t s r =
  let q = s.prev in
  remove_symbol t s;
  remove_symbol t q.next;
  insert_after t q (mk_nt r);
  if not (check t q) then ignore (check t q.next)

(* [s] is the sole use of its rule: splice the body in place of [s]. *)
and expand_rule t s =
  match s.nt with
  | None -> assert false
  | Some r ->
    let left = s.prev and right = s.next in
    let first = r.g.next and last = r.g.prev in
    delete_digram t s;
    join t left first;
    join t last right;
    r.dead <- true;
    t.n_rules_inlined <- t.n_rules_inlined + 1;
    Hashtbl.replace t.index (key_of last right) last;
    ignore (check t left)

let append t v =
  let last = t.start.g.prev in
  insert_after t last (mk_term v);
  t.n_input <- t.n_input + 1;
  ignore (check t last)

let build values =
  let g = { term = 0; nt = None; guard = None; prev = dummy; next = dummy } in
  let start = { id = 0; g; uses = 0; dead = false } in
  g.guard <- Some start;
  g.prev <- g;
  g.next <- g;
  let t =
    {
      start;
      rules = [ start ];
      index = Hashtbl.create 1024;
      next_id = 1;
      n_input = 0;
      n_digram_hits = 0;
      n_digram_misses = 0;
      n_rules_created = 0;
      n_rules_inlined = 0;
    }
  in
  Array.iter (append t) values;
  t

let live_rules t = List.filter (fun r -> not r.dead) t.rules

let iter_body r f =
  let rec go s = if not (is_guard s) then (f s; go s.next) in
  go r.g.next

let num_rules t = List.length (live_rules t)

let grammar_symbols t =
  let n = ref 0 in
  List.iter (fun r -> iter_body r (fun _ -> incr n)) (live_rules t);
  !n

let bits t = 32 * (grammar_symbols t + num_rules t)

type telemetry = {
  tl_input : int;
  tl_rules : int;
  tl_symbols : int;
  tl_rules_created : int;
  tl_rules_inlined : int;
  tl_digram_hits : int;
  tl_digram_misses : int;
}

let telemetry t =
  {
    tl_input = t.n_input;
    tl_rules = num_rules t;
    tl_symbols = grammar_symbols t;
    tl_rules_created = t.n_rules_created;
    tl_rules_inlined = t.n_rules_inlined;
    tl_digram_hits = t.n_digram_hits;
    tl_digram_misses = t.n_digram_misses;
  }

let expand t =
  let out = ref [] in
  let rec walk r =
    iter_body r (fun s ->
        match s.nt with
        | Some r' -> walk r'
        | None -> out := s.term :: !out)
  in
  walk t.start;
  Array.of_list (List.rev !out)

let check_invariants t =
  (* Digram uniqueness, modulo overlap: occurrences sharing a symbol
     (e.g. inside a run [a a a]) are exempt, exactly as in the original
     algorithm's overlap rule. *)
  let digrams : (int * int * int * int, (sym * sym) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let dup = ref None in
  List.iter
    (fun r ->
      let prev = ref None in
      iter_body r (fun s ->
          (match !prev with
           | Some p ->
             let key = key_of p s in
             let occs =
               match Hashtbl.find_opt digrams key with
               | Some l -> l
               | None ->
                 let l = ref [] in
                 Hashtbl.replace digrams key l;
                 l
             in
             if
               List.exists
                 (fun (a, b) -> not (a == p || a == s || b == p || b == s))
                 !occs
             then
               dup :=
                 Some (Printf.sprintf "duplicate digram in rule %d" r.id);
             occs := (p, s) :: !occs
           | None -> ());
          prev := Some s))
    (live_rules t);
  match !dup with
  | Some m -> Error m
  | None ->
    let uses = Hashtbl.create 64 in
    List.iter
      (fun r ->
        iter_body r (fun s ->
            match s.nt with
            | Some r' ->
              Hashtbl.replace uses r'.id
                (1 + Option.value (Hashtbl.find_opt uses r'.id) ~default:0)
            | None -> ()))
      (live_rules t);
    let bad = ref None in
    List.iter
      (fun r ->
        if r.id <> t.start.id then begin
          let u = Option.value (Hashtbl.find_opt uses r.id) ~default:0 in
          if u < 2 then
            bad := Some (Printf.sprintf "rule %d used %d time(s)" r.id u)
        end)
      (live_rules t);
    (match !bad with Some m -> Error m | None -> Ok ())

let rule_stats t =
  let rec expansion r acc =
    let out = ref acc in
    iter_body r (fun s ->
        match s.nt with
        | Some r' -> out := expansion r' !out
        | None -> out := s.term :: !out);
    !out
  in
  List.filter_map
    (fun r ->
      if r.id = t.start.id then None
      else Some (Array.of_list (List.rev (expansion r [])), r.uses))
    (live_rules t)
