(* Seeded inputs for the end-to-end benchmark: planted training
   databases for the training stream, random-graph evaluation
   databases for cold serving, and motif-copy databases for hot
   serving. Everything is a function of the seed, except the served
   models and the motif library, which are fixed. *)

let sym fmt = Printf.ksprintf Elem.sym fmt

(* Random facts over [nodes] elements: [edges] binary E facts plus the
   extra relations, then every node is made an entity. *)
let random_db ~seed ~nodes ~edges ~extra =
  let rng = Random.State.make [| seed |] in
  let pick () = sym "v%d" (Random.State.int rng nodes) in
  let db = ref Db.empty in
  for _ = 1 to edges do
    db := Db.add (Fact.make_l "E" [ pick (); pick () ]) !db
  done;
  List.iter
    (fun (rel, arity, count) ->
      for _ = 1 to count do
        db := Db.add (Fact.make_l rel (List.init arity (fun _ -> pick ()))) !db
      done)
    extra;
  for i = 0 to nodes - 1 do
    db := Db.add_entity (sym "v%d" i) !db
  done;
  !db

(* A random connected feature query with at most [m] atoms over the
   schema of [db]: every new atom shares a variable with the atoms
   before it, so the query lies in CQ[m]. *)
let random_query ~rng ~m db =
  let schema = Cq_enum.schema_of_db db |> Array.of_list in
  let x = Cq.default_free in
  let vars = ref [| x |] and fresh = ref 0 in
  let var () =
    if Random.State.int rng 3 = 0 then begin
      incr fresh;
      let v = sym "y%d" !fresh in
      vars := Array.append !vars [| v |];
      v
    end
    else !vars.(Random.State.int rng (Array.length !vars))
  in
  let atom () =
    let rel, arity = schema.(Random.State.int rng (Array.length schema)) in
    let anchor = !vars.(Random.State.int rng (Array.length !vars)) in
    let at = Random.State.int rng arity in
    Fact.make rel (Array.init arity (fun i -> if i = at then anchor else var ()))
  in
  let n = 1 + Random.State.int rng m in
  Cq.make ~free:x (List.init n (fun _ -> atom ()))

(* Label [db] by a planted random query, retrying until both classes
   hold at least two entities (a fixed fallback keeps this total). *)
let planted ~seed ~m db =
  let rng = Random.State.make [| seed; 17 |] in
  let n = List.length (Db.entities db) in
  let rec go tries =
    let t = Planted.label_by_query db (random_query ~rng ~m db) in
    let pos = List.length (Labeling.positives t.Labeling.labeling) in
    if (pos >= 2 && pos <= n - 2) || tries = 0 then t else go (tries - 1)
  in
  go 200

(* --- the training stream ------------------------------------------- *)

type kind = Narrow | Wide_r | Wide_t | Dense | Many | Noisy

let kind_name = function
  | Narrow -> "narrow"
  | Wide_r -> "wide_r"
  | Wide_t -> "wide_t"
  | Dense -> "dense"
  | Many -> "many"
  | Noisy -> "noisy"

(* One cycle of the stream. Schema width moves enumeration (180, 324
   and 704 candidate features), density moves column evaluation,
   entity count moves the LP, and noisy copies are settled by Nsep's
   precheck. *)
let cycle = [| Narrow; Wide_r; Wide_t; Dense; Many; Noisy |]

type train_op = {
  index : int;
  kind : kind;
  m : int;
  training : Labeling.training;
  noisy : bool;
}

let op_seed ~seed i = (seed * 1_000_003) + (i * 7919) + 1

let train_op ~seed index =
  let kind = cycle.(index mod Array.length cycle) in
  let s = op_seed ~seed index in
  let plant ~m ~nodes ~edges ~extra =
    planted ~seed:s ~m (random_db ~seed:s ~nodes ~edges ~extra)
  in
  let m, training, noisy =
    match kind with
    | Narrow -> (3, plant ~m:3 ~nodes:12 ~edges:30 ~extra:[], false)
    | Wide_r -> (3, plant ~m:3 ~nodes:12 ~edges:24 ~extra:[ ("R", 1, 5) ], false)
    | Wide_t -> (2, plant ~m:2 ~nodes:12 ~edges:24 ~extra:[ ("T", 3, 8) ], false)
    | Dense -> (3, plant ~m:3 ~nodes:24 ~edges:240 ~extra:[], false)
    | Many -> (3, plant ~m:3 ~nodes:48 ~edges:96 ~extra:[], false)
    | Noisy ->
        (* Three isomorphic copies with one label flipped: the flipped
           entity has twins with the opposite label, so no statistic
           separates it. *)
        let base = plant ~m:3 ~nodes:8 ~edges:16 ~extra:[] in
        let t = Families.copies base 3 in
        let victim = List.hd (Db.entities t.Labeling.db) in
        let lab = Labeling.get victim t.Labeling.labeling in
        ( 3,
          Labeling.training t.Labeling.db
            (Labeling.set victim (Labeling.flip lab) t.Labeling.labeling),
          true )
  in
  { index; kind; m; training; noisy }

(* --- serving inputs -------------------------------------------------- *)

(* The models and the motif library are part of the workload's
   definition, not of its seeded traffic: they are fixed, so the cost of
   a served entity does not swing with the seed. *)
let fixed_seed = 20190705

(* A model trained for serving: a planted CQ[3] instance of the [Many]
   shape, so the served model is what the pipeline produces (about 20
   features of radius 3). *)
let serving_training variant =
  let s = op_seed ~seed:fixed_seed (100_000 + variant) in
  planted ~seed:s ~m:3 (random_db ~seed:s ~nodes:48 ~edges:96 ~extra:[])

(* Cold pool: distinct random graphs, so radius-3 neighbourhoods
   essentially never repeat. The warm-up database is [cold_db
   ~seed:fixed_seed], so set-up does not vary with the seed. *)
let cold_db ~seed j =
  let s = op_seed ~seed (200_000 + j) in
  random_db ~seed:s ~nodes:60 ~edges:120 ~extra:[]

(* Hot databases: renamed copies of a small motif library. Copies are
   disjoint and renamed order-preservingly, so isomorphic positions get
   identical canonical neighbourhood keys. *)
let motifs =
  Array.init 4 (fun k ->
      let s = op_seed ~seed:fixed_seed (300_000 + k) in
      let rng = Random.State.make [| s |] in
      (* A path through all five nodes keeps the motif connected. *)
      let edges =
        List.init 4 (fun i -> (i, i + 1))
        @ List.init 3 (fun _ -> (Random.State.int rng 5, Random.State.int rng 5))
      in
      edges)

(* A database of [copies] disjoint renamed copies; copy [c] is motif
   [motif c]. *)
let copies_db ~copies motif =
  let db = ref Db.empty in
  for c = 0 to copies - 1 do
    let node i = sym "c%03d_n%d" c i in
    List.iter
      (fun (a, b) -> db := Db.add (Fact.make_l "E" [ node a; node b ]) !db)
      motifs.(motif c);
    for i = 0 to 4 do
      db := Db.add_entity (node i) !db
    done
  done;
  !db

let hot_db ~seed ~copies h =
  let rng = Random.State.make [| op_seed ~seed (400_000 + h) |] in
  copies_db ~copies (fun _ -> Random.State.int rng (Array.length motifs))

(* The hot warm-up database: each motif once, so that one warm-up batch
   fills the cache for every hot database whatever the seed. *)
let motif_library_db () = copies_db ~copies:(Array.length motifs) Fun.id

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
