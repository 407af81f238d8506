(** The typed lint rules, evaluated over {!Callgraph}'s whole-library
    mention graph and the loaded typed trees:

    - {b R1'} — interprocedural budget discipline: every [while]/[for]
      loop and every call-graph cycle in a solver module must reach
      [Budget.tick], through any number of (cross-module) helpers.
      Reported under [R1] with the same keys as the Parsetree rule, so
      existing suppressions and baseline entries keep working.
    - {b R6} — determinism: no PRNG, wall-clock read, or
      order-dependent [Hashtbl] iteration on any path reachable from a
      solver module's exported surface ([Budget.Clock] is exempt: it
      lives outside the solver dirs).
    - {b R7} — marshal safety: the ok type of every application of
      [Isolate.run] (or of a [Guard.runner]'s [.run] field) must be
      transitively closure-free and custom-block-free, walked through
      the library's own type declarations.
    - {b R9} — effect signatures: every exported solver entry point
      gets an inferred {!Effects} signature; writing a global that is
      not [Runtime_state]-registered is a finding. Pure and
      registered-cache-only entry points are certified shard-safe in
      the [--par-report] output.
    - {b R10} — fork-time aliasing: a locally-created mutable value
      ({!Escape}) must not cross an [Isolate.run]/[Isolate.spawn] or
      runner-field boundary, directly or captured in a closure.

    (R11, shard-safety {e drift}, lives in {!Lint_driver}: it compares
    the committed report file against regeneration, which needs the
    lint root rather than typed trees.)

    Suppression directives and the baseline are applied by the caller
    (the driver merges these findings into the per-file stream before
    [Lint_source.apply]). *)

type source = {
  s_mod : string;  (** compilation unit name, e.g. ["Cq_sep"] *)
  s_file : string;  (** root-relative [.ml] path findings attach to *)
  s_solver : bool;  (** in a worst-case-exponential library dir *)
  s_impl : Typedtree.structure;
  s_intf : Typedtree.signature option;
}

val run : ?effects:Effects.t -> Callgraph.t -> source list -> Lint_finding.t list
(** All typed findings over the loaded set, unfiltered and unsorted.
    The graph must have been built from exactly the [s_impl]s of
    [sources] (plus any extra context modules). [?effects] lets the
    driver share one {!Effects.analyze} pass with the shard-safety
    report; omitted, it is computed here. *)

val exported_roots : Callgraph.t -> source list -> int list
(** R6's root set: nodes for every value exported by a solver module's
    interface — or, without a [cmti], every top-level definition of
    the module (degrading towards more coverage). Exposed for tests
    and [--dump-callgraph] diagnostics. *)

val entry_points : Callgraph.t -> source list -> (source * string * int) list
(** {!exported_roots} with provenance: [(module source, exported name,
    graph node)] — the shared input of R9 and {!Shard_report}. *)
