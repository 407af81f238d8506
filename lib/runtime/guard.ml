type failure = Budget.failure =
  | Timeout
  | Fuel_exhausted of string
  | Limit_exceeded of string
  | Solver_error of string

let failure_to_string = function
  | Timeout -> "timeout: wall-clock deadline exceeded"
  | Fuel_exhausted what -> Printf.sprintf "fuel exhausted in %s" what
  | Limit_exceeded what -> Printf.sprintf "limit exceeded: %s" what
  | Solver_error msg -> Printf.sprintf "solver error: %s" msg

let pp_failure fmt f = Format.pp_print_string fmt (failure_to_string f)

let is_resource_failure = function
  | Timeout | Fuel_exhausted _ | Limit_exceeded _ -> true
  | Solver_error _ -> false

let run budget f =
  let previous = Budget.install budget in
  let restore () = ignore (Budget.install previous) in
  match f () with
  | v ->
      restore ();
      Ok v
  | exception e -> begin
      restore ();
      match e with
      | Budget.Exhausted failure -> Error failure
      | Stack_overflow -> Error (Limit_exceeded "stack overflow")
      | Out_of_memory -> Error (Limit_exceeded "out of memory")
      | Invalid_argument msg | Failure msg -> Error (Solver_error msg)
      | Not_found -> Error (Solver_error "internal lookup failed (Not_found)")
      | Division_by_zero -> Error (Solver_error "division by zero")
      | e -> raise e
    end

type runner = { run : 'a. Budget.t -> (unit -> 'a) -> ('a, failure) result }

let runner = { run }

let retriable ~extend_deadline = function
  | Fuel_exhausted _ | Limit_exceeded _ -> true
  (* Without a deadline extension, retrying a timeout under the same
     absolute deadline would fail instantly. *)
  | Timeout -> extend_deadline
  | Solver_error _ -> false

(* Deterministic bounded jitter for retry backoff: the same xorshift
   scheme the budget's chaos injection uses, seeded explicitly by the
   caller (e.g. from a job-id checksum) rather than by [Random] or the
   wall clock, so a retry schedule replays bit-for-bit from its seed.
   Each draw is a float in [0, 1). *)
let jitter_stream seed =
  let state = ref ((seed + 1) * 0x2545F4914F6CDD1 land max_int) in
  if !state = 0 then state := 0x2545F4914F6CDD1;
  fun () ->
    let s = !state in
    let s = s lxor (s lsl 13) land max_int in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) land max_int in
    let s = if s = 0 then 0x2545F4914F6CDD1 else s in
    state := s;
    float_of_int (s land 0xFFFFF) /. float_of_int 0x100000

let retrying ?(attempts = 2) ?(factor = 4.0) ?(extend_deadline = false)
    ?(backoff = 0.0) ?jitter_seed inner =
  if attempts < 1 then invalid_arg "Guard.retrying: attempts must be >= 1";
  if backoff < 0.0 then invalid_arg "Guard.retrying: backoff must be >= 0";
  let run : 'a. Budget.t -> (unit -> 'a) -> ('a, failure) result =
   fun budget f ->
    let draw =
      match jitter_seed with
      | None -> fun () -> 1.0
      | Some seed ->
          let next = jitter_stream seed in
          (* Bounded jitter: scale each delay into [1/2, 1) of its
             nominal value, so synchronized workers de-correlate
             without any of them waiting longer than the nominal
             exponential schedule. *)
          fun () -> 0.5 +. (0.5 *. next ())
    in
    let rec go attempt b =
      match inner.run b f with
      | Ok _ as ok -> ok
      | Error failure when attempt < attempts && retriable ~extend_deadline failure ->
          if backoff > 0.0 then
            Budget.Clock.sleep
              (backoff *. (2.0 ** float_of_int (attempt - 1)) *. draw ());
          go (attempt + 1) (Budget.escalate ~factor ~extend_deadline b)
      | Error _ as err -> err
    in
    go 1 budget
  in
  { run }

let solver_error fmt =
  Printf.ksprintf
    (fun msg -> raise (Budget.Exhausted (Solver_error msg)))
    fmt
