(* End-to-end benchmark: train -> publish -> serve.

   e2e.exe --workload NAME --seed N --seconds S --trace 0|1
           --nproc N --cqserved PATH [--source DIGEST]

   Workloads:
   - train          seeded stream of planted training databases, each
                    trained (Textfmt -> Cqfeat.generate_b) and published
                    (Model_store.publish)
   - train_sharded  the same stream with column evaluation through
                    Atoms_sep.pruned_features_sharded (nproc shards)
   - serve_cold     open-loop CLASSIFY against a live cqserved over a
                    rotating pool of distinct random graphs (cache ~0%)
   - serve_hot      open-loop CLASSIFY over motif-copy databases (cache
                    mostly hits) with a PUBLISH every 5 s

   With --trace 0 the run prints the end-to-end metrics; with --trace 1
   it prints the per-layer split (spans around each layer's public
   entry points, with deterministic fuel-tick counts). The last stdout
   line is the JSON result; the line before it stamps the environment.
   Every output is checked by an oracle outside the timed regions. *)

let now = Unix.gettimeofday

(* --- small utilities ------------------------------------------------- *)

let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let f = pos -. float_of_int i in
      if i + 1 < n then (a.(i) *. (1. -. f)) +. (a.(i + 1) *. f) else a.(i)

let median = percentile 0.5
let sum = List.fold_left ( +. ) 0.
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set of a process, from /proc. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> 0.
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %f kB" (fun kb -> kb /. 1024.)
                else go ()
          in
          go ())

(* Largest peak resident set among the waited-for children (the
   forked shard workers), from getrusage(RUSAGE_CHILDREN). *)
external children_maxrss_kb : unit -> int = "e2e_children_maxrss_kb"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let mkdir_p path = try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* A fixed integer loop, timed: lets a reader normalise wall times
   measured on different machines. *)
let calibration_ms () =
  let t0 = now () in
  let h = ref 1 in
  for i = 1 to 20_000_000 do
    h := (!h * 48271 + i) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !h);
  (now () -. t0) *. 1e3

(* --- spans with deterministic tick counts ---------------------------- *)

(* Each traced call runs under its own large finite fuel budget, so the
   ticks it consumed are exactly [big - remaining]; nested layers are
   never traced inside one another, so every span is self time. *)
let big_fuel = 1 lsl 60

type acc = { mutable ms : float; mutable ticks : int; mutable calls : int }

let acc () = { ms = 0.; ticks = 0; calls = 0 }

exception Span_failed of string

let span a f =
  let budget = Budget.make ~fuel:big_fuel () in
  let t0 = now () in
  let r = Guard.run budget f in
  a.ms <- a.ms +. ((now () -. t0) *. 1e3);
  a.calls <- a.calls + 1;
  (match Budget.remaining_fuel budget with
  | Some left -> a.ticks <- a.ticks + (big_fuel - left)
  | None -> ());
  match r with
  | Ok v -> v
  | Error f -> raise (Span_failed (Guard.failure_to_string f))

(* --- result output ---------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_float m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

(* --- configuration ----------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  nproc : int;
  cqserved : string;
  source : string;
}

let parse_args () =
  let get = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace get (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv));
  let str k d = match Hashtbl.find_opt get k with Some v -> v | None -> d in
  let req k =
    match Hashtbl.find_opt get k with
    | Some v -> v
    | None -> failwith ("missing --" ^ k)
  in
  {
    workload = req "workload";
    seed = int_of_string (str "seed" "1");
    seconds = float_of_string (str "seconds" "10");
    trace = str "trace" "0" = "1";
    nproc = max 1 (int_of_string (str "nproc" "2"));
    cqserved = str "cqserved" "";
    source = str "source" "unknown";
  }

(* The end-to-end metrics, the same on every workload. Tail
   percentiles of the same latencies are reported by the traced run
   instead: on a shared VM they swing with host contention far more
   than a relative bound allows. *)
let end_to_end ~setup_s ~op_ms ~rss =
  [
    { name = "setup_s"; unit_ = "s"; value = setup_s };
    { name = "op_ms"; unit_ = "ms"; value = op_ms };
    { name = "peak_rss_mb"; unit_ = "MB"; value = rss };
  ]

(* Per-layer metrics are (name, unit, value) triples; run.py fills in
   the ones a workload does not produce from BENCHMARK.json. *)
let tail_layers lat =
  [
    ("tail.op_ms_p90", "ms", percentile 0.9 lat);
    ("tail.op_ms_p99", "ms", percentile 0.99 lat);
    ("tail.samples", "count", float_of_int (List.length lat));
  ]

(* ======================================================================= *)
(* Training                                                                *)
(* ======================================================================= *)

let lang m = Language.Cq_atoms { m; p = None }
let op_budget () = Budget.make ~timeout:60. ()

type trained = (Model_io.model option, Guard.failure) result

(* One training operation as `cqsep generate` performs it, plus the
   publish: parse the file, generate, publish the model. *)
let train_file ~sharding ~store ~m path : trained =
  let t = Textfmt.training_of_document (Textfmt.parse_file path) in
  let budget = op_budget () in
  let generated =
    match sharding with
    | None -> Cqfeat.generate_b ~budget (lang m) t
    | Some plan -> (
        match Atoms_sep.pruned_features_sharded ~sharding:plan ~budget ~m t with
        | Error _ as e -> e
        | Ok stat ->
            Guard.run budget (fun () ->
                Option.map (fun c -> (stat, c)) (Statistic.separating_classifier stat t)))
  in
  match generated with
  | Error _ as e -> e
  | Ok None -> Ok None
  | Ok (Some (stat, c)) ->
      let model = Model_io.make stat c in
      ignore (Model_store.publish store model);
      Ok (Some model)

let model_string = Option.map Model_io.to_string

(* The oracle for one training operation; [None] when it is correct. *)
let check_trained (op : Gen.train_op) (r : trained) ~reference =
  match r with
  | Error f -> Some ("budget: " ^ Guard.failure_to_string f)
  | Ok model -> (
      let separates (m : Model_io.model) =
        Labeling.disagreement (Model_io.apply m op.training.db) op.training.labeling = 0
      in
      let verdict_ok =
        if op.noisy then
          let stat = Atoms_sep.pruned_features ~m:op.m op.training in
          let exact =
            Nsep.decide ~tier:Nsep.Exact_only (Statistic.examples stat op.training)
          in
          match (exact.Nsep.verdict, model) with
          | Nsep.Sep _, Some m -> separates m
          | Nsep.Unsep, None -> true
          | _ -> false
        else match model with Some m -> separates m | None -> false
      in
      if not verdict_ok then Some (Gen.kind_name op.kind ^ ": wrong verdict")
      else
        match reference with
        | Some ref_string when ref_string <> model_string model ->
            Some (Gen.kind_name op.kind ^ ": model differs from Cqfeat.generate")
        | _ -> None)

(* Reference for the sharded path: the sequential entry point on the
   same file. *)
let sequential_model (op : Gen.train_op) path =
  Runtime_state.reset_caches ();
  let t = Textfmt.training_of_document (Textfmt.parse_file path) in
  match Cqfeat.generate_b (lang op.m) t with
  | Ok g -> model_string (Option.map (fun (s, c) -> Model_io.make s c) g)
  | Error _ -> Some "<failed>"

let write_op dir (op : Gen.train_op) =
  let path = Filename.concat dir (Printf.sprintf "train%04d.db" op.index) in
  Gen.write_file path (Textfmt.print_training op.training);
  path

let sharding_of args ~sharded =
  if sharded then Some (Shardexec.plan ~shards:args.nproc ~workers:args.nproc ())
  else None

(* Program-side set-up: open a new model store, then train and publish
   one warm-up cycle of fixed instances, one op of each kind. Returns
   its time and the store; the warm-up results are checked after the
   timing. *)
let train_setup ~sharding ~dir k =
  let warm = Array.init (Array.length Gen.cycle) (Gen.train_op ~seed:Gen.fixed_seed) in
  let warm_dir = Filename.concat dir "warm" in
  mkdir_p warm_dir;
  let warm_paths = Array.map (write_op warm_dir) warm in
  let t0 = now () in
  let store = Model_store.open_ ~dir:(Filename.concat dir (Printf.sprintf "store%d" k)) in
  let results =
    Array.map2
      (fun (op : Gen.train_op) path ->
        Runtime_state.reset_caches ();
        train_file ~sharding ~store ~m:op.m path)
      warm warm_paths
  in
  let t = now () -. t0 in
  Array.iter2
    (fun op r ->
      match check_trained op r ~reference:None with
      | Some f -> failwith ("warm-up training: " ^ f)
      | None -> ())
    warm results;
  (t, store)

(* The typical cost of one op of the stream: the mean over the kinds of
   each kind's median. The kinds' costs sit in separate clusters, so a
   median of the mixed sample would jump between cluster edges. *)
let per_kind_ms ops =
  let kinds = Array.length Gen.cycle in
  mean
    (List.init kinds (fun k ->
         median (List.filter_map (fun (i, _, _, ms) -> if i mod kinds = k then Some ms else None) ops)))

(* [setup_s] is the median of [train_setups] set-ups spread evenly over
   the stream, so it samples the host over the whole run, as the ops
   do. The first set-up's store takes the stream's models. *)
let train_setups = 7

let run_train args ~dir ~sharded =
  let sharding = sharding_of args ~sharded in
  let t, store = train_setup ~sharding ~dir 0 in
  let setup_times = ref [ t ] in
  let ops = ref [] and measured = ref 0. and i = ref 0 in
  (* Per op only file paths and the outcome are kept in memory, so the
     peak RSS reflects the program, not the benchmark's bookkeeping, and
     hardly grows with the op count. The stream stops after a whole
     number of cycles, so every kind is equally represented. *)
  while !measured < args.seconds || !i mod Array.length Gen.cycle <> 0 do
    let k = List.length !setup_times in
    if k < train_setups && !measured >= float_of_int k *. args.seconds /. float_of_int train_setups
    then begin
      setup_times := fst (train_setup ~sharding ~dir k) :: !setup_times;
      rm_rf (Filename.concat dir (Printf.sprintf "store%d" k))
    end;
    let path, m =
      let op = Gen.train_op ~seed:args.seed !i in
      (write_op dir op, op.m)
    in
    Runtime_state.reset_caches ();
    let t0 = now () in
    let r = train_file ~sharding ~store ~m path in
    let dt = now () -. t0 in
    measured := !measured +. dt;
    let r =
      Result.map
        (Option.map (fun m ->
             let model_path = path ^ ".model" in
             Gen.write_file model_path (Model_io.to_string m);
             model_path))
        r
    in
    ops := (!i, path, r, dt *. 1e3) :: !ops;
    incr i
  done;
  let rss = Float.max (vm_hwm_mb "self") (float_of_int (children_maxrss_kb ()) /. 1024.) in
  let ops = List.rev !ops in
  let failures =
    List.filter_map
      (fun (i, path, r, _) ->
        let op = Gen.train_op ~seed:args.seed i in
        let reference = if sharded then Some (sequential_model op path) else None in
        check_trained op (Result.map (Option.map (fun p -> Model_io.of_string (read_file p))) r) ~reference)
      ops
  in
  List.iter (fun f -> Printf.eprintf "failure: %s\n" f) failures;
  let lat = List.map (fun (_, _, _, ms) -> ms) ops in
  let n = List.length ops in
  let setup_s = median !setup_times in
  (failures = [], n, List.length failures, end_to_end ~setup_s ~op_ms:(per_kind_ms ops) ~rss, lat)

(* --- traced training -------------------------------------------------- *)

type train_trace = {
  parse : acc;
  enum : acc;
  eval : acc;
  dedupe : acc;
  nsep : acc;
  publish : acc;
  shard : acc;
  mutable candidates : int;
  mutable kept : int;
  mutable bytes : int;
  mutable models : int;
  mutable nsep_decided : int;
  mutable nsep_certified : int;
  mutable escalations : int;
  mutable exact_solves : int;
  mutable coverage_min : float;
  mutable traced_ms : float;
  mutable imbalance : float list;
  mutable result_bytes : int;
  mutable shard_stats : int array;  (* dispatched requeued kills speculations max_inflight *)
}

let new_trace () =
  {
    parse = acc (); enum = acc (); eval = acc (); dedupe = acc (); nsep = acc ();
    publish = acc (); shard = acc (); candidates = 0; kept = 0; bytes = 0; models = 0;
    nsep_decided = 0; nsep_certified = 0; escalations = 0; exact_solves = 0;
    coverage_min = 1.; traced_ms = 0.; imbalance = [];
    result_bytes = 0; shard_stats = Array.make 5 0;
  }

(* Cqfeat.generate for CQ[m] recomposed from the layers' public entry
   points (Atoms_sep.generate's steps), each call inside a span. *)
let traced_train tr ~store ~sharding ~nproc (op : Gen.train_op) path =
  let t0 = now () in
  let span_ms () =
    tr.parse.ms +. tr.enum.ms +. tr.eval.ms +. tr.dedupe.ms +. tr.nsep.ms +. tr.publish.ms
  in
  let before = span_ms () in
  let t = span tr.parse (fun () -> Textfmt.training_of_document (Textfmt.parse_file path)) in
  let features = span tr.enum (fun () -> Atoms_sep.all_features ~m:op.m t.db) in
  let entities = Db.entities t.db in
  let costs = ref [] in
  let columns =
    List.map
      (fun q ->
        let ticks0 = tr.eval.ticks in
        let selected = span tr.eval (fun () -> Elem.Set.of_list (Eval_engine.eval q t.db)) in
        costs := (tr.eval.ticks - ticks0) :: !costs;
        List.map (fun e -> Elem.Set.mem e selected) entities)
      features
  in
  let stat =
    span tr.dedupe (fun () ->
        let seen = Hashtbl.create 64 in
        List.filter_map
          (fun (q, column) ->
            if Hashtbl.mem seen column then None
            else begin
              Hashtbl.add seen column ();
              Some q
            end)
          (List.combine features columns))
  in
  tr.candidates <- tr.candidates + List.length features;
  tr.kept <- tr.kept + List.length stat;
  let examples = span tr.eval (fun () -> Statistic.examples stat t) in
  let classifier = span tr.nsep (fun () -> Nsep.separable examples) in
  let s = Nsep.stats () in
  tr.nsep_decided <- tr.nsep_decided + s.decided;
  tr.nsep_certified <- tr.nsep_certified + s.certified_cg + s.certified_simplex + s.certified_precheck;
  tr.escalations <- tr.escalations + s.escalations;
  tr.exact_solves <- tr.exact_solves + s.exact_solves;
  let model =
    Option.map
      (fun c ->
        span tr.publish (fun () ->
            let m = Model_io.make stat c in
            ignore (Model_store.publish store m);
            m))
      classifier
  in
  Option.iter
    (fun m ->
      tr.bytes <- tr.bytes + String.length (Model_io.to_string_checksummed m);
      tr.models <- tr.models + 1)
    model;
  let total = (now () -. t0) *. 1e3 in
  tr.traced_ms <- tr.traced_ms +. total;
  tr.coverage_min <- Float.min tr.coverage_min (ratio (span_ms () -. before) total);
  (* The sharded path: the same candidate columns through Shardexec,
     whose pruned statistic must equal the recomposed one. *)
  (match sharding with
  | None -> ()
  | Some plan ->
      let costs = Array.of_list (List.rev !costs) in
      let n = Array.length costs in
      let ranges = Shardexec.partition ~n ~shards:nproc in
      let cost { Shardexec.lo; hi } =
        let c = ref 0 in
        for i = lo to hi - 1 do
          c := !c + costs.(i)
        done;
        float_of_int !c
      in
      let rc = List.map cost ranges in
      tr.imbalance <- ratio (List.fold_left Float.max 0. rc) (mean rc) :: tr.imbalance;
      let cols = Array.of_list columns in
      List.iter
        (fun { Shardexec.lo; hi } ->
          let slice = Array.to_list (Array.sub cols lo (hi - lo)) in
          tr.result_bytes <- tr.result_bytes + String.length (Marshal.to_string slice []))
        ranges;
      let sharded =
        span tr.shard (fun () ->
            match
              Atoms_sep.pruned_features_sharded ~sharding:plan
                ~budget:(Budget.make ~fuel:big_fuel ()) ~m:op.m t
            with
            | Ok st -> st
            | Error f -> raise (Span_failed (Guard.failure_to_string f)))
      in
      if List.map Cq.to_string sharded <> List.map Cq.to_string stat then
        raise (Span_failed "sharded statistic differs from the sequential one");
      let st = Shardexec.stats () in
      let add i v = tr.shard_stats.(i) <- tr.shard_stats.(i) + v in
      add 0 st.dispatched;
      add 1 st.requeued;
      add 2 st.kills;
      add 3 st.speculations;
      tr.shard_stats.(4) <- max tr.shard_stats.(4) st.max_inflight);
  model_string model

let trace_train_ops = 24

let trace_train args ~dir ~sharded =
  let sharding = sharding_of args ~sharded in
  let ops = List.init trace_train_ops (fun i -> Gen.train_op ~seed:args.seed i) in
  let paths = List.map (write_op dir) ops in
  let store = Model_store.open_ ~dir:(Filename.concat dir "store") in
  let failures = ref [] in
  let fail s = failures := s :: !failures in
  let pass () =
    let tr = new_trace () in
    let models =
      List.map2
        (fun op path ->
          Runtime_state.reset_caches ();
          match traced_train tr ~store ~sharding ~nproc:args.nproc op path with
          | m -> m
          | exception Span_failed why ->
              fail ("traced op failed: " ^ why);
              None)
        ops paths
    in
    (tr, models)
  in
  let a, models_a = pass () in
  (* Untraced pass between the two traced ones: the real entry point,
     timed per op, is both the reference model and the overhead base. *)
  let plain_ms = ref 0. in
  let references =
    List.map2
      (fun op path ->
        Runtime_state.reset_caches ();
        let t0 = now () in
        let r = train_file ~sharding:None ~store ~m:op.Gen.m path in
        plain_ms := !plain_ms +. ((now () -. t0) *. 1e3);
        (match check_trained op r ~reference:None with Some f -> fail f | None -> ());
        match r with Ok m -> model_string m | Error _ -> Some "<failed>")
      ops paths
  in
  let b, models_b = pass () in
  if models_a <> references || models_b <> references then
    fail "traced composition differs from Cqfeat.generate";
  let ticks tr = [ tr.enum.ticks; tr.eval.ticks; tr.dedupe.ticks; tr.nsep.ticks ] in
  if ticks a <> ticks b then fail "tick counts differ between two traced runs";
  List.iter (fun f -> Printf.eprintf "failure: %s\n" f) !failures;
  let n = float_of_int trace_train_ops in
  let per x = x /. n in
  let fi = float_of_int in
  let seq_pruned_ms = a.enum.ms +. a.dedupe.ms +. a.eval.ms in
  let shard_layer =
    [
      ("shardexec.ms", "ms", per a.shard.ms);
      ("shardexec.speedup", "ratio", if sharded then ratio seq_pruned_ms a.shard.ms else 0.);
      ("shardexec.imbalance", "ratio", mean a.imbalance);
      ("shardexec.result_bytes", "bytes", per (fi a.result_bytes));
      ("shardexec.dispatched", "count", fi a.shard_stats.(0));
      ("shardexec.requeued", "count", fi a.shard_stats.(1));
      ("shardexec.kills", "count", fi a.shard_stats.(2));
      ("shardexec.speculations", "count", fi a.shard_stats.(3));
      ("shardexec.max_inflight", "count", fi a.shard_stats.(4));
    ]
  in
  let layers =
    [
      ("cq_enum.ms", "ms", per a.enum.ms);
      ("cq_enum.features", "count", per (fi a.candidates));
      ("cq_enum.ticks", "count", per (fi a.enum.ticks));
      ("eval_engine.ms", "ms", per a.eval.ms);
      ("eval_engine.ticks", "count", per (fi a.eval.ticks));
      ("atoms_sep.kept_ratio", "ratio", ratio (fi a.kept) (fi a.candidates));
      ("nsep.ms", "ms", per a.nsep.ms);
      ("nsep.ticks", "count", per (fi a.nsep.ticks));
      ("nsep.certified_ratio", "ratio", ratio (fi a.nsep_certified) (fi a.nsep_decided));
      ("nsep.escalations", "count", fi a.escalations);
      ("nsep.exact_solves", "count", fi a.exact_solves);
      ("textfmt.parse_ms", "ms", per a.parse.ms);
      ("model_store.publish_ms", "ms", ratio a.publish.ms (fi a.publish.calls));
      ("model_io.bytes", "bytes", ratio (fi a.bytes) (fi a.models));
      ("trace.overhead_ratio", "ratio", ratio ((a.traced_ms +. b.traced_ms) /. 2.) !plain_ms);
      ("trace.span_coverage", "ratio", a.coverage_min);
    ]
    @ shard_layer
  in
  (!failures = [], trace_train_ops, List.length !failures, layers)

(* ======================================================================= *)
(* Serving                                                                 *)
(* ======================================================================= *)

type request =
  | Classify of { db : int; entities : string list }
  | Publish of int  (** model index *)

type serving = {
  socket : string;
  db_paths : string array;
  dbs : Db.t array;
  model_paths : string array;
  models : Model_io.model array;
  warmup : request list;
  nominal : (float * request) array;
  saturation : (float * request) array;  (** all due at 0: closed loop *)
}

let line_of sv = function
  | Classify { db; entities } ->
      Printf.sprintf "CLASSIFY db=%s entities=%s" sv.db_paths.(db)
        (String.concat "," entities)
  | Publish k -> Printf.sprintf "PUBLISH model=%s" sv.model_paths.(k)

let names db = List.map Elem.to_string (Db.entities db)

(* The served models come out of the training pipeline itself. *)
let train_serving_model ~dir ~store variant =
  let t = Gen.serving_training variant in
  let path = Filename.concat dir (Printf.sprintf "serve_train%d.db" variant) in
  Gen.write_file path (Textfmt.print_training t);
  match train_file ~sharding:None ~store ~m:3 path with
  | Ok (Some m) -> m
  | _ -> failwith "serving model: training failed"

let cold_rate = 25.
let hot_rate = 150.
let publish_period = 5.0

let build_serving args ~dir ~hot =
  let store = Model_store.open_ ~dir:(Filename.concat dir "trainstore") in
  let nmodels = if hot then 2 else 1 in
  let models = Array.init nmodels (train_serving_model ~dir ~store) in
  let model_paths =
    Array.mapi
      (fun k m ->
        let p = Filename.concat dir (Printf.sprintf "model%d.txt" k) in
        Model_io.save p m;
        p)
      models
  in
  (* The last database is the warm-up's, the same for every seed. *)
  let dbs =
    if hot then
      Array.append (Array.init 4 (Gen.hot_db ~seed:args.seed ~copies:8)) [| Gen.motif_library_db () |]
    else Array.append (Array.init 48 (Gen.cold_db ~seed:args.seed)) [| Gen.cold_db ~seed:Gen.fixed_seed 0 |]
  in
  let db_paths =
    Array.mapi
      (fun j db ->
        let p = Filename.concat dir (Printf.sprintf "serve%02d.db" j) in
        Gen.write_file p (Textfmt.print_db db);
        p)
      dbs
  in
  let nominal_s = args.seconds in
  let rng = Random.State.make [| args.seed; 99 |] in
  let pool = Array.length dbs - 1 in
  (* Cold requests walk the pool so no (database, entity) repeats. *)
  let cold_request r =
    let db = r mod pool and round = r / pool in
    let ents = Array.of_list (names dbs.(db)) in
    let k = Array.length ents in
    Classify
      { db; entities = [ ents.(2 * round mod k); ents.(((2 * round) + 1) mod k) ] }
  in
  let hot_request () =
    let db = Random.State.int rng pool in
    let ents = Array.of_list (names dbs.(db)) in
    Classify
      { db; entities = List.init 16 (fun _ -> ents.(Random.State.int rng (Array.length ents))) }
  in
  let rate = if hot then hot_rate else cold_rate in
  let count = int_of_float (nominal_s *. rate) in
  let classify_at r = if hot then hot_request () else cold_request r in
  let nominal =
    let reqs = List.init count (fun r -> (float_of_int r /. rate, classify_at r)) in
    if hot then
      let pubs =
        List.init
          (int_of_float (nominal_s /. publish_period))
          (fun i -> ((float_of_int i +. 0.5) *. publish_period, Publish ((i + 1) mod 2)))
      in
      List.stable_sort (fun (a, _) (b, _) -> compare a b) (reqs @ pubs)
    else reqs
  in
  (* About two seconds of work at the daemon's capacity. *)
  let saturation =
    Array.init (if hot then 4000 else 300) (fun r -> (0., classify_at (count + r)))
  in
  let warmup = [ Classify { db = pool; entities = names dbs.(pool) } ] in
  {
    socket = Filename.concat dir "s";
    db_paths;
    dbs;
    model_paths;
    models;
    warmup;
    nominal = Array.of_list nominal;
    saturation;
  }

(* Serving inputs must have the property they were chosen for: on the
   hot databases the canonical keys are shared across motif copies. *)
let probe_hot_keys sv =
  Array.iter
    (fun (m : Model_io.model) ->
      match Neighborhood.model_radius m.statistic with
      | None -> failwith "hot model has a disconnected feature: no shared keys"
      | Some r ->
          Array.iter
            (fun db ->
              let keys = Hashtbl.create 64 in
              List.iter
                (fun e -> Hashtbl.replace keys (Neighborhood.key ~radius:r db e) ())
                (Db.entities db);
              if Hashtbl.length keys > 20 then
                failwith
                  (Printf.sprintf "hot keys not shared: %d distinct" (Hashtbl.length keys)))
            sv.dbs)
    sv.models

(* --- the daemon ------------------------------------------------------- *)

let request_line socket line =
  let phase = Loadgen.run ~socket ~conns:1 ~timeout:30. [| (0., line) |] in
  phase.Loadgen.results.(0).Loadgen.reply

let daemon : int option ref = ref None

let stop_daemon () =
  match !daemon with
  | None -> ()
  | Some pid ->
      daemon := None;
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      let deadline = now () +. 5. in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when now () < deadline ->
            Unix.sleepf 0.005;
            wait ()
        | 0, _ ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid)
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ()

let start_daemon args ~dir sv =
  (try Unix.unlink sv.socket with Unix.Unix_error _ -> ());
  let log = Unix.openfile (Filename.concat dir "cqserved.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process args.cqserved
          [|
            args.cqserved; "-s"; sv.socket; "-w"; Filename.concat dir "wal";
            "--models"; Filename.concat dir "models";
          |]
          Unix.stdin log log)
  in
  daemon := Some pid;
  let deadline = now () +. 20. in
  let rec ready () =
    if Sys.file_exists sv.socket && request_line sv.socket "PING" = Ok "OK pong" then ()
    else if now () > deadline then failwith "cqserved did not come up"
    else begin
      Unix.sleepf 0.001;
      ready ()
    end
  in
  ready ();
  pid

let expect_ok what = function
  | Ok l when String.length l >= 2 && String.sub l 0 2 = "OK" -> l
  | Ok l | Error l -> failwith (what ^ ": " ^ l)

let version_of reply = Scanf.sscanf reply "OK v%d" (fun v -> v)

(* Program-side set-up: start cqserved (recovering the store left by
   the previous set-up), publish the first model, warm up. Returns its
   time and the daemon's pid; the daemon stays up. *)
let serve_setup args ~dir sv versions =
  let t0 = now () in
  let pid = start_daemon args ~dir sv in
  let v = version_of (expect_ok "publish" (request_line sv.socket (line_of sv (Publish 0)))) in
  Hashtbl.replace versions v 0;
  List.iter
    (fun r -> ignore (expect_ok "warm-up" (request_line sv.socket (line_of sv r))))
    sv.warmup;
  (now () -. t0, pid)

(* --- the oracle -------------------------------------------------------- *)

type reply_check = Served_ok | Rejected | Bad of string

let reference_labels sv =
  let memo = Hashtbl.create 64 in
  fun model db ->
    match Hashtbl.find_opt memo (model, db) with
    | Some l -> l
    | None ->
        let l = Model_io.apply sv.models.(model) sv.dbs.(db) in
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (e, lab) -> Hashtbl.replace tbl (Elem.to_string e) lab)
          (Labeling.bindings l);
        Hashtbl.replace memo (model, db) tbl;
        tbl

let check_reply versions reference req reply =
  match (req, reply) with
  | _, Error e -> Bad e
  | Publish k, Ok line -> (
      match version_of line with
      | v ->
          Hashtbl.replace versions v k;
          Served_ok
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> Bad line)
  | Classify { db; entities }, Ok line -> (
      match String.split_on_char ' ' line with
      | "REJECT" :: _ -> Rejected
      | "OK" :: v :: _hits :: _cold :: verdicts -> (
          let v = Scanf.sscanf v "v%d" (fun v -> v) in
          match Hashtbl.find_opt versions v with
          | None -> Bad ("unknown version " ^ string_of_int v)
          | Some k ->
              let labels = reference k db in
              let expect =
                List.map
                  (fun e ->
                    (match Hashtbl.find labels e with
                    | Labeling.Pos -> "+"
                    | Labeling.Neg -> "-")
                    ^ e)
                  entities
              in
              if expect = verdicts then Served_ok else Bad ("wrong verdicts: " ^ line))
      | _ -> Bad line)

let stats_field line key =
  let prefix = key ^ "=" in
  List.fold_left
    (fun acc tok ->
      let lp = String.length prefix in
      if String.length tok > lp && String.sub tok 0 lp = prefix then
        float_of_string (String.sub tok lp (String.length tok - lp))
      else acc)
    0. (String.split_on_char ' ' line)

type serve_run = {
  sr_ok : bool;
  sr_attempted : int;
  sr_failed : int;
  sr_setup : float;
  sr_nominal : Loadgen.phase;
  sr_capacity : float;
  sr_rss : float;
  sr_stats : string;
}

(* The daemon run: set-ups, the open-loop nominal phase, with
   [~saturate] the closed-loop saturation phase (the traced run's
   capacity figure), STATS, more set-ups, then the oracle. [setup_s] is
   the median of the set-ups before and after the measured phases, so
   it samples the host over the whole run, as the phases do. *)
let setups_before = 6
let setups_after = 5

let daemon_run args ~dir ~saturate sv =
  (match Loadgen.self_test ~dir with
  | Ok () -> ()
  | Error e -> failwith ("load generator self-test: " ^ e));
  let versions = Hashtbl.create 16 in
  let times = ref [] in
  let setup () =
    let t, pid = serve_setup args ~dir sv versions in
    times := t :: !times;
    pid
  in
  for _ = 2 to setups_before do
    ignore (setup ());
    stop_daemon ()
  done;
  let pid = setup () in
  let conns = min 2 args.nproc in
  let lines a = Array.map (fun (due, r) -> (due, line_of sv r)) a in
  let nominal = Loadgen.run ~socket:sv.socket ~conns ~timeout:10. (lines sv.nominal) in
  let saturation =
    if saturate then Loadgen.run ~socket:sv.socket ~conns ~timeout:10. (lines sv.saturation)
    else { Loadgen.results = [||]; backlog_max = 0; elapsed = 0. }
  in
  let stats = expect_ok "stats" (request_line sv.socket "STATS") in
  let rss = vm_hwm_mb (string_of_int pid) in
  stop_daemon ();
  for _ = 1 to setups_after do
    ignore (setup ());
    stop_daemon ()
  done;
  let setup_s = median !times in
  Printf.eprintf "set-up s: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times));
  let reference = reference_labels sv in
  let failures = ref [] in
  let check reqs (phase : Loadgen.phase) ~nominal =
    Array.mapi
      (fun i (r : Loadgen.result) ->
        let req = snd reqs.(i) in
        match check_reply versions reference req r.reply with
        | Served_ok -> true
        | Rejected ->
            if nominal then failures := "rejected at the nominal rate" :: !failures;
            false
        | Bad why ->
            failures := why :: !failures;
            false)
      phase.results
  in
  ignore (check sv.nominal nominal ~nominal:true);
  let sat_ok = check sv.saturation saturation ~nominal:false in
  let served = Array.fold_left (fun n ok -> if ok then n + 1 else n) 0 sat_ok in
  List.iter (fun f -> Printf.eprintf "failure: %s\n" f) (List.rev !failures);
  {
    sr_ok = !failures = [];
    sr_attempted = Array.length nominal.results + Array.length saturation.results;
    sr_failed = List.length !failures;
    sr_setup = setup_s;
    sr_nominal = nominal;
    sr_capacity = ratio (float_of_int served) saturation.elapsed;
    sr_rss = rss;
    sr_stats = stats;
  }

let classify_latencies sv (phase : Loadgen.phase) =
  Array.to_list phase.results
  |> List.filteri (fun i _ ->
         match snd sv.nominal.(i) with Classify _ -> true | Publish _ -> false)
  |> List.map (fun r -> Loadgen.latency r *. 1e3)

let run_serve args ~dir ~hot =
  let sv = build_serving args ~dir ~hot in
  if hot then probe_hot_keys sv;
  let r = daemon_run args ~dir ~saturate:false sv in
  let lat = classify_latencies sv r.sr_nominal in
  Printf.eprintf "classify latency ms: n=%d p10=%.3f p50=%.3f p75=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f\n"
    (List.length lat) (percentile 0.1 lat) (median lat) (percentile 0.75 lat) (percentile 0.9 lat)
    (percentile 0.95 lat) (percentile 0.99 lat) (percentile 1. lat);
  ( r.sr_ok,
    r.sr_attempted,
    r.sr_failed,
    end_to_end ~setup_s:r.sr_setup ~op_ms:(median lat) ~rss:r.sr_rss )

(* --- traced serving ----------------------------------------------------- *)

type serve_trace = {
  load : acc;
  key : acc;
  classify : acc;
  vector : acc;
  pub : acc;
  mutable classify_ms : float list;  (* load_db + classify, per request *)
  mutable hits : int;
  mutable cold : int;
  mutable distinct_cold : int;
  mutable flips : int;
  mutable wall_ms : float;
  mutable bad : int;
}

(* Replays the nominal schedule in process against a Serve.t with the
   daemon's default config. With [traced] each layer call also runs
   inside a span: load_db, one Neighborhood.key per entity, the
   in-process classify, and one Statistic.vector per entity whose
   neighbourhood is new for the current version. *)
let replay sv ~reference ~dir ~pass ~traced =
  Runtime_state.reset_caches ();
  let store_dir = Filename.concat dir (Printf.sprintf "replay%d" pass) in
  rm_rf store_dir;
  let serve = Serve.create (Model_store.open_ ~dir:store_dir) in
  let tr =
    {
      load = acc (); key = acc (); classify = acc (); vector = acc (); pub = acc ();
      classify_ms = []; hits = 0; cold = 0; distinct_cold = 0; flips = 0; wall_ms = 0.;
      bad = 0;
    }
  in
  let radii = Array.map (fun (m : Model_io.model) -> Neighborhood.model_radius m.statistic) sv.models in
  let seen = Hashtbl.create 1024 in
  let current = ref 0 in
  let publish k =
    ignore (span tr.pub (fun () -> Serve.publish serve sv.models.(k)));
    current := k;
    tr.flips <- tr.flips + 1
  in
  let classify ~count db entities =
    let t0 = now () in
    let db_key, d =
      match span tr.load (fun () -> Serve.load_db serve sv.db_paths.(db)) with
      | Ok x -> x
      | Error e -> failwith e
    in
    let ents = List.map Elem.sym entities in
    let model = sv.models.(!current) and radius = radii.(!current) in
    if traced then
      List.iter
        (fun e ->
          let k =
            match radius with
            | Some r -> span tr.key (fun () -> Neighborhood.key ~radius:r d e)
            | None -> db_key ^ Elem.to_string e
          in
          if not (Hashtbl.mem seen (tr.flips, k)) then begin
            Hashtbl.replace seen (tr.flips, k) ();
            tr.distinct_cold <- tr.distinct_cold + 1;
            ignore (span tr.vector (fun () -> Statistic.vector model.statistic d e))
          end)
        ents;
    let outcome = span tr.classify (fun () -> Serve.classify serve ~db_key ~db:d ents) in
    let service_ms = (now () -. t0) *. 1e3 in
    (match outcome with
    | Serve.Served s ->
        tr.hits <- tr.hits + s.sv_hits;
        tr.cold <- tr.cold + s.sv_cold;
        if count then tr.classify_ms <- service_ms :: tr.classify_ms;
        let labels = reference !current db in
        List.iter
          (fun (e, lab) ->
            if Hashtbl.find labels (Elem.to_string e) <> lab then tr.bad <- tr.bad + 1)
          s.sv_results
    | Serve.Shed _ | Serve.Failed _ -> tr.bad <- tr.bad + 1)
  in
  let request ~count = function
    | Publish k -> publish k
    | Classify { db; entities } -> classify ~count db entities
  in
  let t0 = now () in
  publish 0;
  tr.flips <- 0;
  List.iter (request ~count:false) sv.warmup;
  Array.iter (fun (_, r) -> request ~count:true r) sv.nominal;
  tr.wall_ms <- (now () -. t0) *. 1e3;
  rm_rf store_dir;
  tr

let trace_serve args ~dir ~hot =
  let sv = build_serving args ~dir ~hot in
  if hot then probe_hot_keys sv;
  let r = daemon_run args ~dir ~saturate:true sv in
  (* Reference labels for every (model, database) pair, computed before
     any replay so the oracle stays outside the replay's wall time. *)
  let reference = reference_labels sv in
  Array.iteri
    (fun k _ -> Array.iteri (fun db _ -> ignore (reference k db)) sv.dbs)
    sv.models;
  let a = replay sv ~reference ~dir ~pass:1 ~traced:true in
  let plain = replay sv ~reference ~dir ~pass:0 ~traced:false in
  let b = replay sv ~reference ~dir ~pass:2 ~traced:true in
  let failures = ref (if r.sr_ok then [] else [ "daemon run failed" ]) in
  let fail s = failures := s :: !failures in
  if plain.bad + a.bad + b.bad > 0 then fail "in-process replay served wrong or shed verdicts";
  if (a.key.ticks, a.vector.ticks) <> (b.key.ticks, b.vector.ticks) then
    fail "tick counts differ between two traced runs";
  List.iter (fun f -> Printf.eprintf "failure: %s\n" f) !failures;
  let fi = float_of_int in
  let per (x : acc) v = ratio v (fi x.calls) in
  let lat = classify_latencies sv r.sr_nominal in
  let daemon_p50 = median lat in
  let late =
    Array.to_list r.sr_nominal.results |> List.map (fun x -> Loadgen.lateness x *. 1e3)
  in
  let span_total = a.load.ms +. a.key.ms +. a.classify.ms +. a.vector.ms +. a.pub.ms in
  let layers =
    [
      ("serve.load_db_ms", "ms", per a.load a.load.ms);
      ("model_store.publish_ms", "ms", per a.pub a.pub.ms);
      ( "model_io.bytes", "bytes",
        mean
          (Array.to_list
             (Array.map (fun m -> fi (String.length (Model_io.to_string_checksummed m))) sv.models))
      );
      ("neighborhood.key_ms", "ms", per a.key a.key.ms);
      ("neighborhood.key_ticks", "count", per a.key (fi a.key.ticks));
      ("statistic.vector_ms", "ms", per a.vector a.vector.ms);
      ("statistic.vector_ticks", "count", per a.vector (fi a.vector.ticks));
      ("eval_cache.hit_ratio", "ratio", ratio (fi a.hits) (fi (a.hits + a.cold)));
      ("serve.cold_per_distinct_key", "ratio", ratio (fi a.cold) (fi a.distinct_cold));
      ("eval_cache.flips", "count", fi a.flips);
      ("serve.classify_ms", "ms", median plain.classify_ms);
      ("cqserved.overhead_ms", "ms", daemon_p50 -. median plain.classify_ms);
      ("cqserved.capacity_rps", "1/s", r.sr_capacity);
      ("serve.shed_overload", "count", stats_field r.sr_stats "eval_shed_overload");
      ("serve.shed_breaker", "count", stats_field r.sr_stats "eval_shed_breaker");
      ("serve.eval_failures", "count", stats_field r.sr_stats "eval_failures");
      ("loadgen.late_ms_p99", "ms", percentile 0.99 late);
      ("loadgen.backlog_max", "count", fi r.sr_nominal.backlog_max);
      ("trace.overhead_ratio", "ratio", ratio a.wall_ms plain.wall_ms);
      ("trace.span_coverage", "ratio", ratio span_total a.wall_ms);
    ]
    @ tail_layers lat
  in
  ( !failures = [],
    r.sr_attempted + (3 * Array.length sv.nominal),
    r.sr_failed + plain.bad + a.bad + b.bad,
    layers )

(* ======================================================================= *)

let layer_metrics = List.map (fun (name, unit_, value) -> { name; unit_; value })

let () =
  let args = parse_args () in
  if args.cqserved = "" || not (Sys.file_exists args.cqserved) then begin
    prerr_endline "e2e: --cqserved must name the built cqserved executable";
    exit 2
  end;
  let root = ".bench_run" in
  mkdir_p root;
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  at_exit (fun () ->
      stop_daemon ();
      rm_rf dir);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let calib = calibration_ms () in
  Printf.printf
    "{\"stamp\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"nproc\": %d, \
     \"ocaml\": %S, \"source\": %S, \"calibration_ms\": %.3f}}\n%!"
    args.workload args.seed args.seconds args.trace args.nproc Sys.ocaml_version args.source
    calib;
  (* Any error ends the run through [exit], so the at_exit handler stops
     the daemon; no result line is printed. *)
  let run () =
    match (args.workload, args.trace) with
    | ("train" | "train_sharded"), false ->
        let ok, a, f, m, _ = run_train args ~dir ~sharded:(args.workload = "train_sharded") in
        (ok, a, f, m)
    | "serve_cold", false -> run_serve args ~dir ~hot:false
    | "serve_hot", false -> run_serve args ~dir ~hot:true
    | ("train" | "train_sharded"), true ->
        (* The untraced stream first, for the tail percentiles; then the
           traced passes. *)
        let sharded = args.workload = "train_sharded" in
        let ok1, a1, f1, _, lat = run_train args ~dir ~sharded in
        let ok, a, f, l = trace_train args ~dir ~sharded in
        (ok1 && ok, a1 + a, f1 + f, layer_metrics (l @ tail_layers lat))
    | ("serve_cold" | "serve_hot"), true ->
        let ok, a, f, l = trace_serve args ~dir ~hot:(args.workload = "serve_hot") in
        (ok, a, f, layer_metrics l)
    | w, _ ->
        Printf.eprintf "e2e: unknown workload %s\n" w;
        exit 2
  in
  match run () with
  | correct, attempted, failed, metrics -> print_result ~correct ~attempted ~failed metrics
  | exception e ->
      Printf.eprintf "e2e: %s\n" (Printexc.to_string e);
      exit 2
