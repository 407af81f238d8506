(* R0 fixture: the first directive silences a real R1 finding; the
   second sits above a loop that ticks, so it suppresses nothing and
   must itself be reported once R1 has run over the file. *)

(* cqlint: allow R1 — fixture: structural recursion on a decreasing nat *)
let rec explore n = if n = 0 then [] else n :: explore (n - 1)

let count xs =
  let n = ref 0 in
  (* cqlint: allow R1 — fixture: stale, the loop below ticks *)
  while !n < List.length xs do
    Budget.tick ~what:"fixture: count" ();
    incr n
  done;
  !n
