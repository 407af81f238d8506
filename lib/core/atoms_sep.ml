let all_features ~m ?p db =
  Cq_enum.feature_queries ?max_var_occ:p
    ~schema:(Cq_enum.schema_of_db db) ~max_atoms:m ()

let pruned_features ~m ?p (t : Labeling.training) =
  let features = all_features ~m ?p t.db in
  let entities = Db.entities t.db in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun q ->
      let selected = Elem.Set.of_list (Eval_engine.eval q t.db) in
      let column = List.map (fun e -> Elem.Set.mem e selected) entities in
      if Hashtbl.mem seen column then false
      else begin
        Hashtbl.add seen column ();
        true
      end)
    features

let generate ~m ?p (t : Labeling.training) =
  let stat = pruned_features ~m ?p t in
  match Statistic.separating_classifier stat t with
  | Some c -> Some (stat, c)
  | None -> None

let separable ~m ?p t = generate ~m ?p t <> None

let classify ~m ?p (t : Labeling.training) eval_db =
  match generate ~m ?p t with
  | None ->
      invalid_arg "Atoms_sep.classify: training database is not CQ[m]-separable"
  | Some (stat, c) -> Statistic.induced_labeling stat c eval_db

let min_errors ~m ?p ?cap (t : Labeling.training) =
  let stat = pruned_features ~m ?p t in
  let examples = Statistic.examples stat t in
  match Linsep.min_errors_exact ?cap examples with
  | Some (err, c) -> Some (err, stat, c)
  | None -> None

let error_budget ~eps n =
  (* largest integer ≤ eps·n *)
  let scaled = Rat.mul eps (Rat.of_int n) in
  let num = Rat.num scaled and den = Rat.den scaled in
  Bigint.to_int (Bigint.div num den)

let apx_separable ~m ?p ~eps (t : Labeling.training) =
  let n = List.length (Db.entities t.db) in
  let budget = error_budget ~eps n in
  match min_errors ~m ?p ~cap:budget t with
  | Some (err, _, _) -> err <= budget
  | None -> false

let apx_classify ~m ?p ~eps (t : Labeling.training) eval_db =
  let n = List.length (Db.entities t.db) in
  let budget = error_budget ~eps n in
  match min_errors ~m ?p ~cap:budget t with
  | Some (err, stat, c) when err <= budget ->
      (Statistic.induced_labeling stat c eval_db, err)
  | _ ->
      invalid_arg
        "Atoms_sep.apx_classify: no CQ[m] classifier within the error budget"

(* --- sharded variants ------------------------------------------------ *)

(* The Shardexec client contract: workers compute raw per-range data —
   here the indicator columns of a contiguous slice of the feature
   list — and every order-dependent step (the Hashtbl column dedupe,
   the LP) runs sequentially in the parent over the range-ordered
   concatenation. The resulting statistic is therefore byte-identical
   to the sequential {!pruned_features}, whichever workers die and in
   whatever order shards complete. *)

let column_slice fq entities db { Shardexec.lo; hi } =
  let out = ref [] in
  for i = hi - 1 downto lo do
    Budget.tick ~what:"atoms sep: column slice" ();
    let selected = Elem.Set.of_list (Eval_engine.eval fq.(i) db) in
    out := List.map (fun e -> Elem.Set.mem e selected) entities :: !out
  done;
  !out

let dedupe_features features columns =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (q, column) ->
      if Hashtbl.mem seen column then None
      else begin
        Hashtbl.add seen column ();
        Some q
      end)
    (List.combine features columns)

let pruned_features_sharded ~sharding ?budget:(b = Budget.installed ()) ~m ?p
    (t : Labeling.training) =
  match Guard.run b (fun () -> all_features ~m ?p t.db) with
  | Error _ as e -> e
  | Ok features -> begin
      let entities = Db.entities t.db in
      let fq = Array.of_list features in
      match
        Shardexec.run ~plan:sharding ~budget:b ~n:(Array.length fq)
          ~compute:(column_slice fq entities t.db)
          ~merge:(fun a c -> a @ c)
          ()
      with
      | Error _ as e -> e
      | Ok columns -> Ok (dedupe_features features columns)
    end

let separable_sharded ~sharding ?budget:(b = Budget.installed ()) ~m ?p t =
  match pruned_features_sharded ~sharding ~budget:b ~m ?p t with
  | Error _ as e -> e
  | Ok stat ->
      Guard.run b (fun () ->
          Statistic.separating_classifier stat t <> None)

let min_errors_sharded ~sharding ?budget:(b = Budget.installed ()) ~m ?p ?cap
    t =
  match pruned_features_sharded ~sharding ~budget:b ~m ?p t with
  | Error _ as e -> e
  | Ok stat ->
      Guard.run b (fun () ->
          let examples = Statistic.examples stat t in
          match Linsep.min_errors_exact ?cap examples with
          | Some (err, c) -> Some (err, stat, c)
          | None -> None)
