(** Run a solver under a {!Budget}, converting resource exhaustion and
    internal failures into a structured result.

    [Guard.run] is the single choke point that makes the library's
    entry points total: whatever happens inside — the deadline passes,
    the fuel runs out, a limit trips, the solver rejects its input, the
    stack overflows — the caller gets [Error failure] instead of an
    uncaught exception or a hang. *)

(** Equal to {!Budget.failure} (re-exported so callers of budgeted
    entry points never need to open [Budget]). *)
type failure = Budget.failure =
  | Timeout
  | Fuel_exhausted of string
  | Limit_exceeded of string
  | Solver_error of string

val failure_to_string : failure -> string
val pp_failure : Format.formatter -> failure -> unit

val is_resource_failure : failure -> bool
(** [true] for [Timeout]/[Fuel_exhausted]/[Limit_exceeded] — failures a
    bigger budget could fix — and [false] for [Solver_error]. *)

val run : Budget.t -> (unit -> 'a) -> ('a, failure) result
(** [run budget f] installs [budget] as the ambient budget, runs [f],
    and restores the previously installed budget (so guarded runs
    nest). Returns [Error]:
    - with the failure carried by {!Budget.Exhausted} when a
      cooperative {!Budget.tick} aborted the run;
    - [Limit_exceeded "stack overflow"] on [Stack_overflow];
    - [Limit_exceeded "out of memory"] on [Out_of_memory];
    - [Solver_error msg] on
      [Invalid_argument]/[Failure]/[Not_found]/[Division_by_zero].
    Other exceptions propagate unchanged. *)

type runner = { run : 'a. Budget.t -> (unit -> 'a) -> ('a, failure) result }
(** A pluggable execution strategy for budgeted calls. Code that wants
    to offer a choice of {!run}, hard process isolation
    ({!Isolate.runner}) or retries ({!retrying}) takes a [runner]
    instead of calling {!run} directly — the record's polymorphic field
    lets one runner serve calls of every result type. *)

val runner : runner
(** The in-process default: [runner.run] is {!run}. *)

val retrying :
  ?attempts:int -> ?factor:float -> ?extend_deadline:bool ->
  ?backoff:float -> ?jitter_seed:int -> runner -> runner
(** [retrying inner] wraps a runner with a bounded retry policy for
    resource failures: on [Fuel_exhausted]/[Limit_exceeded] (and on
    [Timeout] when [extend_deadline] is set) the call is re-run under
    {!Budget.escalate}[ ~factor ~extend_deadline] of the previous
    budget, up to [attempts] total attempts (default 2; [factor]
    defaults to 4.0). [Solver_error]s are never retried — a rejected
    input does not become valid under a bigger budget.

    [backoff] (default 0: no delay) sleeps before each re-run, doubling
    per attempt: attempt [k+1] waits [backoff * 2^(k-1)] seconds,
    through {!Budget.Clock.sleep} so tests can intercept it. With
    [jitter_seed], each delay is scaled by a deterministic draw from
    [[1/2, 1)] — an xorshift stream derived from the seed alone, the
    same scheme as the budget's chaos injection — so a herd of workers
    seeded differently (say, by job id) cannot retry in lockstep.
    @raise Invalid_argument when [attempts < 1] or [backoff < 0]. *)

val solver_error : ('a, unit, string, 'b) format4 -> 'a
(** [solver_error fmt ...] raises {!Budget.Exhausted} carrying
    [Solver_error msg]: the structured way for library code to reject
    an input or report an internal failure. Under {!run} the caller
    gets [Error (Solver_error msg)]; outside any guarded run the
    exception propagates (and names the failing solver in [msg], which
    should be token-precise: ["Module.fn: what, got what"]). *)
