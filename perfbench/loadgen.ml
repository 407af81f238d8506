(* Open-loop load generator over the one-request-per-connection line
   protocol of cqserved. A single process drives at most [conns]
   non-blocking connections. Each request has a due time fixed by the
   schedule; latency is measured from that due time, not from when a
   connection happened to be free, so a server stall is charged to
   every request queued behind it. Lateness (send minus due) and the
   backlog of due-but-unsent requests are recorded to show whether the
   generator itself kept up. *)

type result = {
  due : float;  (** seconds from the phase start *)
  sent : float;
  finished : float;
  reply : (string, string) Stdlib.result;  (** reply line or transport error *)
}

type phase = {
  results : result array;  (** schedule order *)
  backlog_max : int;
  elapsed : float;
}

let now = Unix.gettimeofday

type conn = {
  fd : Unix.file_descr;
  idx : int;
  buf : Buffer.t;
  started : float;
}

let open_conn socket line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Unix.set_nonblock fd;
    let s = Bytes.of_string (line ^ "\n") in
    let n = Unix.write fd s 0 (Bytes.length s) in
    if n <> Bytes.length s then failwith "short write"
  with
  | () -> Ok fd
  | exception (Unix.Unix_error _ | Failure _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error "connect/write failed"

(* [run ~socket ~conns ~timeout schedule] sends
   [schedule.(i) = (due, line)] at [start + due]; due times must not
   decrease. A schedule whose requests are all due at 0 runs closed
   loop: each request starts as soon as a connection is free. *)
let run ~socket ~conns ~timeout schedule =
  let n = Array.length schedule in
  let due i = fst schedule.(i) in
  let results = ref [] in
  let inflight = ref [] in
  let next = ref 0 in
  (* every request before [due_upto] is due *)
  let due_upto = ref 0 in
  let backlog_max = ref 0 in
  let start = now () in
  let chunk = Bytes.create 65536 in
  let record idx started reply =
    results :=
      (idx, { due = due idx; sent = started -. start; finished = now () -. start; reply })
      :: !results
  in
  let finish c reply =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    record c.idx c.started reply;
    inflight := List.filter (fun c' -> c'.fd != c.fd) !inflight
  in
  while !next < n || !inflight <> [] do
    let t = now () -. start in
    (* Start every due request a free connection can take. *)
    while !next < n && due !next <= t && List.length !inflight < conns do
      let line = snd schedule.(!next) in
      let started = now () in
      (match open_conn socket line with
      | Ok fd ->
          inflight := { fd; idx = !next; buf = Buffer.create 128; started } :: !inflight
      | Error e -> record !next started (Error e));
      incr next
    done;
    let t = now () -. start in
    while !due_upto < n && due !due_upto <= t do
      incr due_upto
    done;
    backlog_max := max !backlog_max (!due_upto - !next);
    let wait =
      if !next < n && List.length !inflight < conns then
        Float.max 0. (Float.min 0.05 (due !next -. (now () -. start)))
      else 0.05
    in
    let fds = List.map (fun c -> c.fd) !inflight in
    let ready =
      if fds = [] then (if wait > 0. then Unix.sleepf wait; [])
      else
        match Unix.select fds [] [] wait with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun c ->
        if List.memq c.fd ready then begin
          match Unix.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 ->
              finish c
                (if Buffer.length c.buf = 0 then Error "connection closed"
                 else Ok (String.trim (Buffer.contents c.buf)))
          | k -> (
              Buffer.add_subbytes c.buf chunk 0 k;
              match String.index_opt (Buffer.contents c.buf) '\n' with
              | Some i -> finish c (Ok (String.sub (Buffer.contents c.buf) 0 i))
              | None -> ())
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
              ()
          | exception Unix.Unix_error (e, _, _) ->
              finish c (Error (Unix.error_message e))
        end
        else if now () -. c.started > timeout then finish c (Error "timeout"))
      !inflight
  done;
  let elapsed = now () -. start in
  let results =
    List.sort (fun (a, _) (b, _) -> compare a b) !results |> List.map snd
  in
  { results = Array.of_list results; backlog_max = !backlog_max; elapsed }

let latency r = r.finished -. r.due
let lateness r = r.sent -. r.due

(* --- self-test against a stalling stub server ----------------------- *)

(* A forked stub answers every request at once, except that it sleeps
   [stall] seconds before answering request number [at]. Requests due
   while it sleeps must be charged the remaining stall: with due-time
   latency, the request due [stall/2] after the stall began waits about
   [stall/2] more. A generator that timed from the send instead would
   report them as fast. Returns an error message on failure. *)
let self_test ~dir =
  let socket = Filename.concat dir "stub" in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 64;
  let rate = 200. and count = 120 and at = 40 and stall = 0.2 in
  match Unix.fork () with
  | 0 ->
      let buf = Bytes.create 256 in
      for i = 0 to count - 1 do
        let fd, _ = Unix.accept lfd in
        ignore (Unix.read fd buf 0 256);
        if i = at then Unix.sleepf stall;
        ignore (Unix.write_substring fd "OK\n" 0 3);
        Unix.close fd
      done;
      Unix._exit 0
  | pid ->
      Unix.close lfd;
      let schedule =
        Array.init count (fun i -> (float_of_int i /. rate, "PING"))
      in
      let phase =
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid);
            try Unix.unlink socket with Unix.Unix_error _ -> ())
          (fun () -> run ~socket ~conns:1 ~timeout:5. schedule)
      in
      let stall_start = phase.results.(at).due in
      (* the request due halfway through the stall *)
      let probe = at + int_of_float (stall /. 2. *. rate) in
      let r = phase.results.(probe) in
      let expected = stall_start +. stall -. r.due in
      if Array.exists (fun r -> Result.is_error r.reply) phase.results then
        Error "stub requests failed"
      else if latency r < 0.8 *. expected then
        Error
          (Printf.sprintf "stall not charged: latency %.1f ms, expected >= %.1f ms"
             (latency r *. 1e3) (expected *. 1e3))
      else if phase.backlog_max < 2 then Error "stall produced no backlog"
      else Ok ()
