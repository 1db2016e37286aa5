(** What remains of the counting engine's domain pool. The engine runs
    serially everywhere; parallelism lives across [omegad]'s handler
    domains. Kept only because [perfbench/src/paper.ml] still calls
    {!jobs} and {!set_jobs}: delete this module together with those two
    calls at the next benchmark change. *)

(** Always 1. *)
val jobs : unit -> int

(** [set_jobs 1] does nothing; any other value raises
    [Invalid_argument]. *)
val set_jobs : int -> unit
