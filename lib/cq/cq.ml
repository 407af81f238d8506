type t = { free : Elem.t; canon : Db.t }

let default_free = Elem.sym "x"

let of_canonical ~free db = { free; canon = Db.add_entity free db }
let make ~free atoms = of_canonical ~free (Db.of_facts atoms)
let of_pointed_db (db, e) = of_canonical ~free:e db

let free q = q.free
let canonical q = q.canon

let eta_atom q = Fact.make Db.entity_rel [| q.free |]

let atoms q =
  List.filter (fun f -> not (Fact.equal f (eta_atom q))) (Db.facts q.canon)

let num_atoms q = List.length (atoms q)
let vars q = Db.domain q.canon
let existential_vars q = Elem.Set.remove q.free (vars q)

let max_var_occurrences q =
  let occ = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Array.iter
        (fun v ->
          let c = try Hashtbl.find occ v with Not_found -> 0 in
          Hashtbl.replace occ v (c + 1))
        (Fact.args f))
    (atoms q);
  (* cqlint: allow R6 — max is commutative and associative: fold order cannot change the result *)
  Hashtbl.fold (fun _ c acc -> max c acc) occ 0

let selects q db e =
  Hom.pointed q.canon [ q.free ] db [ e ]

let eval q db =
  List.filter (fun e -> selects q db e) (Db.entities db)

let contained_in q1 q2 =
  Hom.pointed q2.canon [ q2.free ] q1.canon [ q1.free ]

let equivalent q1 q2 = contained_in q1 q2 && contained_in q2 q1

(* Conjunction: tag the existential variables of each conjunct with a
   distinct index so they cannot collide, and glue the free
   variables. *)
let conjoin q1 q2 =
  let tag i fr v =
    if Elem.equal v fr then default_free else Elem.tup [ Elem.int i; v ]
  in
  let c1 = Db.map_elems (tag 1 q1.free) q1.canon in
  let c2 = Db.map_elems (tag 2 q2.free) q2.canon in
  of_canonical ~free:default_free (Db.union c1 c2)

let conjoin_all = function
  | [] -> invalid_arg "Cq.conjoin_all: empty list"
  | q :: qs -> List.fold_left conjoin q qs

let top = make ~free:default_free []

(* Core computation: repeatedly look for an element a (other than the
   free variable) that can be retracted away — i.e. a homomorphism from
   the canonical database into the sub-database of facts avoiding a,
   fixing the free variable. Replacing the query by the image keeps it
   equivalent (fold in one direction, inclusion in the other). *)
let core q =
  let rec shrink canon =
    Budget.tick ~what:"cq core: retraction" ();
    let candidates = Elem.Set.remove q.free (Db.domain canon) in
    let try_drop a =
      let without_a =
        Db.filter (fun f -> not (Elem.Set.mem a (Fact.elems f))) canon
      in
      if Elem.Set.mem q.free (Db.domain without_a) || Db.size without_a = 0
      then
        match Hom.find ~fix:[ (q.free, q.free) ] ~src:canon ~dst:without_a () with
        | Some h ->
            let image =
              Db.of_facts
                (List.map
                   (Fact.map_elems (fun v -> Elem.Map.find v h))
                   (Db.facts canon))
            in
            Some image
        | None -> None
      else None
    in
    let rec first_drop = function
      | [] -> canon
      | a :: rest -> begin
          match try_drop a with
          | Some image -> shrink image
          | None -> first_drop rest
        end
    in
    first_drop (Elem.Set.elements candidates)
  in
  { q with canon = shrink q.canon }

(* Deterministic canonical renaming: breadth-first from the free
   variable through atoms (sorted structurally), then leftovers. *)
let canonical_order q =
  let order = ref [] in
  let seen = ref Elem.Set.empty in
  let push v =
    if not (Elem.Set.mem v !seen) then begin
      seen := Elem.Set.add v !seen;
      order := v :: !order
    end
  in
  push q.free;
  let sorted_facts = List.sort Fact.compare (Db.facts q.canon) in
  let rec loop () =
    Budget.tick ~what:"cq: canonical order" ();
    let before = Elem.Set.cardinal !seen in
    List.iter
      (fun f ->
        if Array.exists (fun v -> Elem.Set.mem v !seen) (Fact.args f) then
          Array.iter push (Fact.args f))
      sorted_facts;
    if Elem.Set.cardinal !seen > before then loop ()
  in
  loop ();
  List.iter (fun f -> Array.iter push (Fact.args f)) sorted_facts;
  List.rev !order

let rename_canonically q =
  let order = canonical_order q in
  let mapping = Hashtbl.create 16 in
  List.iteri
    (fun i v ->
      let name =
        if i = 0 then default_free else Elem.sym (Printf.sprintf "y%d" (i - 1))
      in
      Hashtbl.replace mapping v name)
    order;
  let rename v = Hashtbl.find mapping v in
  { free = rename q.free; canon = Db.map_elems rename q.canon }

let render_plain q =
  let q = rename_canonically q in
  String.concat ";"
    (List.sort String.compare (List.map Fact.to_string (Db.facts q.canon)))

(* Shortlex order (length first, then elementwise) on int arrays and on
   arrays of them. Monomorphic, so the renaming search below never goes
   through polymorphic compare. *)
let compare_ints (a : int array) (b : int array) =
  let c = ref (Int.compare (Array.length a) (Array.length b)) in
  Array.iteri (fun i x -> if !c = 0 then c := Int.compare x b.(i)) a;
  !c

let compare_rows (a : int array array) (b : int array array) =
  let c = ref (Int.compare (Array.length a) (Array.length b)) in
  Array.iteri (fun i x -> if !c = 0 then c := compare_ints x b.(i)) a;
  !c

(* Colour refinement on variables [0 .. nv - 1], [0] the free one.
   An atom [R(a1..ak)] is the row [r; a1; ..; ak], [r] the rank of [R]
   among the query's relation names. A variable's signature is its
   colour followed by the sorted rows [r; m; c(a1)..c(ak)] of the atoms
   it occurs in, [m] the bitmask of its positions there. Each round
   replaces every colour by the rank of its signature among the
   query's distinct signatures: the ranks are invariant under renaming
   with no table shared between queries. Rounds stop when the number of
   colours stops growing; the partition is then stable, as a signature
   starts with the previous colour. *)
let refine_colours ~nv atoms =
  let colour = Array.init nv (fun v -> min v 1) in
  let occ = Array.make nv [] in
  Array.iter
    (fun a ->
      let mask = Array.make nv 0 in
      Array.iteri
        (fun i x -> if i > 0 then mask.(x) <- mask.(x) lor (1 lsl (i - 1)))
        a;
      Array.iteri (fun v m -> if m <> 0 then occ.(v) <- (a, m) :: occ.(v)) mask)
    atoms;
  let row (a, m) =
    Array.init
      (Array.length a + 1)
      (fun i -> if i = 0 then a.(0) else if i = 1 then m else colour.(a.(i - 1)))
  in
  let signature v =
    Array.of_list ([| colour.(v) |] :: List.sort compare_ints (List.map row occ.(v)))
  in
  let count = ref (min nv 2) and stable = ref false in
  while not !stable do
    Budget.tick ~what:"cq: color refinement" ();
    let sigs = Array.init nv (fun v -> (signature v, v)) in
    Array.sort (fun (s1, _) (s2, _) -> compare_rows s1 s2) sigs;
    let rank = ref 0 in
    Array.iteri
      (fun i (s, v) ->
        if i > 0 && compare_rows (fst sigs.(i - 1)) s <> 0 then incr rank;
        colour.(v) <- !rank)
      sigs;
    stable := !rank + 1 = !count;
    count := !rank + 1
  done;
  colour

(* The existential variables are labelled 1..n grouped by refined colour,
   classes in colour order (an invariant). The labelling minimizes the
   sorted row list over the permutations within each class, and only the
   winner is rendered. Most small queries have singleton classes, so the
   search is near-linear. *)
let iso_canonical_rows ~rels ~nvars:nv atoms =
  if nv > 11 then None
  else begin
    let colour = refine_colours ~nv atoms in
    let classes = Array.make nv [] in
    List.iter
      (fun v -> classes.(colour.(v)) <- v :: classes.(colour.(v)))
      (List.init (nv - 1) (fun i -> nv - 1 - i));
    let label = Array.make nv 0 and best = ref None in
    let consider () =
      let rows =
        Array.map (Array.mapi (fun i x -> if i = 0 then x else label.(x))) atoms
      in
      Array.sort compare_ints rows;
      match !best with
      | Some b when compare_rows b rows <= 0 -> ()
      | _ -> best := Some rows
    in
    let rec assign offset = function
      | [] -> consider ()
      | [] :: rest -> assign offset rest
      | members :: rest ->
          let members = Array.of_list members in
          let size = Array.length members in
          let used = Array.make size false in
          let rec place i =
            Budget.tick ~what:"cq: canonical renaming search" ();
            if i = size then assign (offset + size) rest
            else
              for j = 0 to size - 1 do
                if not used.(j) then begin
                  used.(j) <- true;
                  label.(members.(i)) <- offset + j;
                  place (i + 1);
                  used.(j) <- false
                end
              done
          in
          place 0
    in
    assign 1 (Array.to_list classes);
    (* rendered as [to_string] renders atoms: variables x, y0, y1, ... *)
    let name l = if l = 0 then Elem.to_string default_free else "y" ^ string_of_int (l - 1) in
    let atom a =
      rels.(a.(0)) ^ "("
      ^ String.concat ", " (List.map name (List.tl (Array.to_list a)))
      ^ ")"
    in
    Some (String.concat ";" (Array.to_list (Array.map atom (Option.get !best))))
  end

(* Above 10 existential variables the deterministic (not
   isomorphism-invariant) renaming of [render_plain] is used. *)
let iso_canonical_string q =
  let ex = Elem.Set.elements (existential_vars q) in
  let index =
    List.fold_left
      (fun (m, i) v -> (Elem.Map.add v i m, i + 1))
      (Elem.Map.empty, 0) (q.free :: ex)
    |> fst
  in
  let facts = Db.facts q.canon in
  let rels = List.sort_uniq String.compare (List.map Fact.rel facts) in
  let rel_ids = List.mapi (fun i r -> (r, i)) rels in
  let row f =
    Array.append [| List.assoc (Fact.rel f) rel_ids |]
      (Array.map (fun v -> Elem.Map.find v index) (Fact.args f))
  in
  match
    iso_canonical_rows ~rels:(Array.of_list rels) ~nvars:(List.length ex + 1)
      (Array.of_list (List.map row facts))
  with
  | Some key -> key
  | None -> render_plain q

let equal q1 q2 = Elem.equal q1.free q2.free && Db.equal q1.canon q2.canon

let compare q1 q2 =
  let c = Elem.compare q1.free q2.free in
  if c <> 0 then c else Db.compare q1.canon q2.canon

let to_string q =
  let q = rename_canonically q in
  let body =
    match atoms q with
    | [] -> "true"
    | ats -> String.concat ", " (List.map Fact.to_string ats)
  in
  Printf.sprintf "%s :- %s" (Elem.to_string q.free) body

let pp fmt q = Format.pp_print_string fmt (to_string q)
