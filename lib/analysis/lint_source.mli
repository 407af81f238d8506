(** Parsed source files and [cqlint] suppression directives.

    Files are parsed with the toolchain's own frontend
    ([Lexer]/[Parse] from compiler-libs), so the linter sees exactly
    the tree the compiler sees, plus the comment stream the lexer
    accumulates — which is where suppression directives live. *)

type ast =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature

type t = {
  path : string;  (** path reported in findings *)
  ast : ast;
  comments : (string * Location.t) list;
}

val load : ?path:string -> string -> (t, string) result
(** [load file] reads and parses [file] ([.mli] as an interface,
    anything else as an implementation). [path] overrides the path
    recorded in findings (the driver passes root-relative paths).
    [Error msg] on I/O or syntax errors — the linter treats those as
    internal errors (exit 2), not findings. *)

val parse_string : path:string -> intf:bool -> string -> (t, string) result
(** Parse in-memory source, for the linter's own tests. *)

(** A parsed [(* cqlint: allow R1[,R3] — reason *)] directive. The
    em-dash separator may also be written [--]. The reason is
    mandatory; a directive without one does not suppress anything and
    is reported under {!Lint_finding.R0}. *)
type suppression = {
  rules : Lint_finding.rule list;
  line : int;  (** last line of the comment *)
  reason : string;
}

val suppressions : t -> suppression list * Lint_finding.t list
(** All well-formed directives, plus an [R0] finding for each comment
    that starts with [cqlint:] but does not parse. *)

val suppressed : suppression list -> Lint_finding.t -> bool
(** A directive on (comment-)line [l] covers findings of its rules on
    lines [l] and [l+1]: same-line trailing comments and
    comment-above-the-offending-line both work. *)

val apply : t -> Lint_finding.t list -> Lint_finding.t list * int
(** [apply src findings] adds the [R0] findings for [src], filters out
    suppressed ones, and returns the survivors (sorted) with the count
    of findings that were suppressed. *)

val unused :
  checked:Lint_finding.rule list -> t -> Lint_finding.t list ->
  Lint_finding.t list
(** [unused ~checked src findings] is an [R0] finding (key
    [unused#<line>]) for each well-formed directive of [src] that
    names only [checked] rules and covers none of [findings]: a stale
    suppression. [findings] must hold every finding the [checked]
    rules report on [src], before suppression. *)
