(* R2 fixture: a raise that Guard.run does not convert. A
   locally-declared exception is fine (caught in-file by convention). *)

exception Local_stop

let solve xs =
  if xs = [] then raise (Sys_error "fixture");
  try List.iter (fun x -> if x > 3 then raise Local_stop) xs with
  | Local_stop -> ()
