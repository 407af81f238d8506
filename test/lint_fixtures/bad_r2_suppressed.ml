(* The same shape as bad_r2.ml, silenced by a reasoned directive. *)

exception Local_stop

let solve xs =
  (* cqlint: allow R2 — fixture: caller documented to catch Sys_error *)
  if xs = [] then raise (Sys_error "fixture");
  try List.iter (fun x -> if x > 3 then raise Local_stop) xs with
  | Local_stop -> ()
