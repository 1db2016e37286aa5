(* See pool.mli: a stub for the benchmark's two calls. *)

let jobs () = 1

let set_jobs n =
  if n <> 1 then invalid_arg "Counting.Pool.set_jobs: the engine is serial"
