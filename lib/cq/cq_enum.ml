(* Feature queries are generated as sorted-by-relation atom sequences
   with a canonical fresh-variable discipline (the i-th fresh variable
   to appear is y_{i}), then deduplicated up to isomorphism. Every CQ
   with at most [max_atoms] atoms is isomorphic to one generated this
   way: sort its atoms by relation name and rename variables by first
   occurrence. *)

let schema_of_db db =
  List.filter (fun (rel, _) -> rel <> Db.entity_rel) (Db.relations db)

(* Variables are ints during generation: [0] is the free variable and
   [i + 1] is y_i. Since the i-th fresh variable is always y_i, the
   variables in scope are exactly [0 .. nvars - 1]. [schema] holds
   (relation id, arity) pairs; an atom is the row [id; a1; ..; ak] and
   an emission is the atom list so far with its [nvars]. *)
let generate ?max_var_occ ~schema ~max_atoms ~emit () =
  let max_ar = Array.fold_left (fun acc (_, ar) -> max acc ar) 0 schema in
  let occ = Array.make ((max_atoms * max_ar) + 1) 0 in
  (* Count the occurrences of [vs]; with [max_var_occ = p], run [k] only
     if no variable then occurs more than [p] times. *)
  let with_occ vs k =
    match max_var_occ with
    | None -> k ()
    | Some p ->
        List.iter (fun v -> occ.(v) <- occ.(v) + 1) vs;
        if List.for_all (fun v -> occ.(v) <= p) vs then k ();
        List.iter (fun v -> occ.(v) <- occ.(v) - 1) vs
  in
  (* Enumerate argument tuples for one atom of arity [ar]: each
     position is an existing variable or the next fresh one. *)
  let rec tuples ar nvars acc k =
    Budget.tick ~what:"CQ[m] feature enumeration" ();
    if ar = 0 then k (List.rev acc) nvars
    else begin
      List.iter
        (fun v -> tuples (ar - 1) nvars (v :: acc) k)
        (List.init nvars Fun.id);
      tuples (ar - 1) (nvars + 1) (nvars :: acc) k
    end
  in
  let rec go atoms count nvars min_rel =
    Budget.tick ~what:"CQ[m] feature enumeration" ();
    Budget.check_depth ~what:"CQ[m] atom count" count;
    emit (List.rev atoms) nvars;
    if count < max_atoms then
      for r = min_rel to Array.length schema - 1 do
        let id, ar = schema.(r) in
        tuples ar nvars [] (fun vs nvars' ->
            with_occ vs (fun () ->
                go (Array.of_list (id :: vs) :: atoms) (count + 1) nvars' r))
      done
  in
  go [] 0 1 0

(* An atom set (sorted distinct rows) as a string key: each row's
   length, then its ints, every int written out in eight bytes. *)
let literal_key atoms =
  let buf = Buffer.create 64 in
  let add v = Buffer.add_int64_le buf (Int64.of_int v) in
  List.iter (fun a -> add (Array.length a); Array.iter add a) atoms;
  Buffer.contents buf

(* Calls [f] on the first emission of every isomorphism class, in
   generation order. An emission whose literal atom set was already
   seen is the same query as an earlier one and skips the canonical
   key; a [Cq.t] is built only for a kept emission, or for the key of
   one with more than 10 existential variables. *)
let iter_distinct ?max_var_occ ~schema ~max_atoms f =
  let schema =
    List.sort (fun (a, _) (b, _) -> String.compare a b)
      (List.filter (fun (rel, _) -> rel <> Db.entity_rel) schema)
  in
  (* Atoms name relations by index in [rels]: every name, [eta]
     included, sorted as [Cq.iso_canonical_rows] requires. *)
  let rels = List.sort_uniq String.compare (Db.entity_rel :: List.map fst schema) in
  let id rel = List.assoc rel (List.mapi (fun i r -> (r, i)) rels) in
  let rels = Array.of_list rels in
  let eta = [| id Db.entity_rel; 0 |] in
  let var v = if v = 0 then Cq.default_free else Elem.sym ("y" ^ string_of_int (v - 1)) in
  let build atoms =
    Cq.make ~free:Cq.default_free
      (List.map
         (fun a -> Fact.make rels.(a.(0)) (Array.map var (Array.sub a 1 (Array.length a - 1))))
         atoms)
  in
  (* [fresh tbl k] adds [k] to [tbl] and tells whether it was new. *)
  let fresh tbl k = (not (Hashtbl.mem tbl k)) && (Hashtbl.add tbl k (); true) in
  let literal = Hashtbl.create 1024 and iso = Hashtbl.create 1024 in
  let emit atoms nvars =
    let atoms = List.sort_uniq compare atoms in
    if fresh literal (literal_key atoms) then begin
      let key =
        match Cq.iso_canonical_rows ~rels ~nvars (Array.of_list (eta :: atoms)) with
        | Some key -> key
        | None -> Cq.iso_canonical_string (build atoms)
      in
      if fresh iso key then f (build atoms)
    end
  in
  generate ?max_var_occ
    ~schema:(Array.of_list (List.map (fun (rel, ar) -> (id rel, ar)) schema))
    ~max_atoms ~emit ()

let feature_queries ?max_var_occ ~schema ~max_atoms () =
  let out = ref [] in
  iter_distinct ?max_var_occ ~schema ~max_atoms (fun q -> out := q :: !out);
  List.rev !out

let count ?max_var_occ ~schema ~max_atoms () =
  let n = ref 0 in
  iter_distinct ?max_var_occ ~schema ~max_atoms (fun _ -> incr n);
  !n

let dedupe_equivalent qs =
  let keep = ref [] in
  List.iter
    (fun q ->
      if not (List.exists (fun q' -> Cq.equivalent q q') !keep) then
        keep := q :: !keep)
    qs;
  List.rev !keep
