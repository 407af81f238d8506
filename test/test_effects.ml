(* Golden effect-signature tests: one fixture per lattice level, the
   mutual-recursion SCC join, shard-safety verdicts, and the R10
   escape rule — all over compiled tf_fixtures cmts, the same
   substrate the real lint run uses. *)

let check = Alcotest.check
let keys_c = Alcotest.(list (pair string string))

let fixture_dir = "typed_fixtures"

let all_ml =
  [ "tf_eff_pure.ml"; "tf_eff_reads.ml"; "tf_eff_writes.ml"; "tf_eff_io.ml";
    "tf_eff_forks.ml"; "tf_eff_scc.ml"; "tf_r10_escape.ml" ]

let units =
  lazy
    (Lint_cmt.load_units ~root:"." ~rel_dir:fixture_dir
       ~lib_name:"tf_fixtures" ~ml:all_ml ~mli:[])

let sources =
  lazy
    (List.filter_map
       (fun (u : Lint_cmt.unit_info) ->
         match (u.u_impl, u.u_ml) with
         | Some impl, Some file ->
             Some
               {
                 Typed_rules.s_mod = u.u_module;
                 s_file = file;
                 s_solver = true;
                 s_impl = impl;
                 s_intf = u.u_intf;
               }
         | _ -> None)
       (Lazy.force units))

let graph =
  lazy
    (Callgraph.build
       (List.map
          (fun (s : Typed_rules.source) -> (s.Typed_rules.s_mod, s.s_impl))
          (Lazy.force sources)))

let effects =
  lazy
    (Effects.analyze (Lazy.force graph)
       (List.map
          (fun (s : Typed_rules.source) -> (s.Typed_rules.s_mod, s.s_impl))
          (Lazy.force sources)))

let typed_findings =
  lazy
    (Typed_rules.run
       ~effects:(Lazy.force effects)
       (Lazy.force graph) (Lazy.force sources))

let fixture f = Filename.concat fixture_dir f

let findings_for file =
  List.filter
    (fun (f : Lint_finding.t) -> f.file = fixture file)
    (Lazy.force typed_findings)

let rule_keys findings =
  List.sort compare
    (List.map
       (fun (f : Lint_finding.t) ->
         (Lint_finding.rule_to_string f.rule, f.key))
       findings)

let sig_of name =
  let g = Lazy.force graph in
  match Callgraph.find_global g name with
  | Some id -> Effects.signature (Lazy.force effects) id
  | None -> Alcotest.failf "no definition named %s in the graph" name

let level_of name =
  Effects.level_name (Effects.level (Lazy.force effects) (sig_of name))

let shard_safe name = Effects.shard_safe (Lazy.force effects) (sig_of name)

(* --- the lattice, one level per fixture -------------------------------- *)

let test_level_pure () =
  check Alcotest.string "add is pure" "pure" (level_of "Tf_eff_pure.add");
  check Alcotest.string "purity propagates through double" "pure"
    (level_of "Tf_eff_pure.double")

let test_level_reads () =
  check Alcotest.string
    "a registered-cache write stays at reads-cache level" "reads-cache"
    (level_of "Tf_eff_reads.lookup");
  check Alcotest.string "a bare registered read too" "reads-cache"
    (level_of "Tf_eff_reads.peek")

let test_level_writes () =
  check Alcotest.string "an unregistered write is writes-global"
    "writes-global"
    (level_of "Tf_eff_writes.record");
  check Alcotest.string "an unregistered read alone is only reads-cache"
    "reads-cache"
    (level_of "Tf_eff_writes.count")

let test_level_io () =
  check Alcotest.string "print_endline is io" "io"
    (level_of "Tf_eff_io.log_it");
  check Alcotest.string "io propagates interprocedurally" "io"
    (level_of "Tf_eff_io.compute")

let test_level_forks () =
  check Alcotest.string "Isolate.run is forks" "forks"
    (level_of "Tf_eff_forks.spawn_it");
  check Alcotest.string "forks propagates interprocedurally" "forks"
    (level_of "Tf_eff_forks.indirect")

let test_scc_join () =
  (* Only ping writes the counter, but pong is in the same SCC: the
     whole component joins to writes-global. *)
  check Alcotest.string "the writer" "writes-global"
    (level_of "Tf_eff_scc.ping");
  check Alcotest.string "its mutual-recursion partner" "writes-global"
    (level_of "Tf_eff_scc.pong")

(* --- shard-safety verdicts --------------------------------------------- *)

let test_shard_safety () =
  check Alcotest.bool "pure is shard-safe" true
    (shard_safe "Tf_eff_pure.add");
  check Alcotest.bool "registered cache write is shard-safe" true
    (shard_safe "Tf_eff_reads.lookup");
  check Alcotest.bool "unregistered write is not" false
    (shard_safe "Tf_eff_writes.record");
  check Alcotest.bool "reading unregistered state is not either" false
    (shard_safe "Tf_eff_writes.count");
  check Alcotest.bool "io is not" false (shard_safe "Tf_eff_io.compute");
  check Alcotest.bool "forks is not" false
    (shard_safe "Tf_eff_forks.indirect")

let test_registration_attribution () =
  let eff = Lazy.force effects in
  let regs =
    List.sort compare
      (List.filter_map
         (fun (s : Effects.site) ->
           Option.map (fun r -> (s.Effects.site_name, r)) s.site_registered)
         (Array.to_list (Effects.sites eff)))
  in
  check keys_c "exactly the tf_eff.cache site is registered"
    [ ("Tf_eff_reads.cache", "tf_eff.cache") ]
    regs

(* --- R9 and R10 finding keys ------------------------------------------- *)

let test_r9_findings () =
  check keys_c "the unregistered writer is the only R9 in its module"
    [ ("R9", "effect:record") ]
    (rule_keys
       (List.filter
          (fun (f : Lint_finding.t) -> f.rule = Lint_finding.R9)
          (findings_for "tf_eff_writes.ml")));
  check keys_c "registered-cache module is R9-clean" []
    (rule_keys
       (List.filter
          (fun (f : Lint_finding.t) -> f.rule = Lint_finding.R9)
          (findings_for "tf_eff_reads.ml")))

let test_r10_escape () =
  check keys_c "the captured Hashtbl is flagged, the thunk-local is not"
    [ ("R10", "escape:seen@tally") ]
    (rule_keys
       (List.filter
          (fun (f : Lint_finding.t) -> f.rule = Lint_finding.R10)
          (findings_for "tf_r10_escape.ml")))

(* --- direct Escape unit: Stored_global --------------------------------- *)

let test_stored_global () =
  (* Reuse the reads fixture: nothing in it stores a local mutable into
     a global, so even with every global admitted the kind stays
     empty — the predicate gates the kind, not the crash. *)
  let srcs = Lazy.force sources in
  let s =
    List.find
      (fun (s : Typed_rules.source) -> s.Typed_rules.s_mod = "Tf_eff_reads")
      srcs
  in
  let escapes =
    Escape.analyze ~is_global:(fun _ -> true) s.Typed_rules.s_impl
  in
  check Alcotest.int "no local mutable is stored into a global" 0
    (List.length
       (List.filter
          (fun (e : Escape.escape) ->
            match e.Escape.esc_kind with
            | Escape.Stored_global _ -> true
            | _ -> false)
          escapes))

let () =
  Alcotest.run "effects"
    [
      ( "lattice",
        [
          Alcotest.test_case "pure" `Quick test_level_pure;
          Alcotest.test_case "reads-cache" `Quick test_level_reads;
          Alcotest.test_case "writes-global" `Quick test_level_writes;
          Alcotest.test_case "io" `Quick test_level_io;
          Alcotest.test_case "forks" `Quick test_level_forks;
          Alcotest.test_case "scc join" `Quick test_scc_join;
        ] );
      ( "shard-safety",
        [
          Alcotest.test_case "verdicts" `Quick test_shard_safety;
          Alcotest.test_case "registration attribution" `Quick
            test_registration_attribution;
        ] );
      ( "rules",
        [
          Alcotest.test_case "r9" `Quick test_r9_findings;
          Alcotest.test_case "r10" `Quick test_r10_escape;
          Alcotest.test_case "stored-global" `Quick test_stored_global;
        ] );
    ]
