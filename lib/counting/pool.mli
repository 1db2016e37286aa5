(** A fixed work-stealing domain pool for the counting engine.

    The pool holds [jobs - 1] worker domains (the submitting domain is
    worker 0 and participates while joining), each with its own task
    queue; idle workers steal from other queues and block on a condition
    variable when everything is dry. Tasks are chunky — whole DNF
    clauses or splinter branches — so queue traffic is negligible next
    to task work.

    {b Determinism.} The pool never reorders results: {!map_list}
    returns results in input order, tasks are pure functions of their
    inputs, and the engine concatenates per-task pieces in original
    index order, so parallel output is byte-identical to serial output.

    {b Deadlock freedom.} {!await} claims not-yet-started tasks and runs
    them inline, helps with other queued work while its target runs
    elsewhere, and sleeps only when there is nothing to do; every task
    completion broadcasts. Nested fork/join is safe: the dependency
    graph is a tree.

    Observability: the pool accounts [pool.tasks], [pool.steals],
    [pool.busy_us] and per-worker [pool.worker<i>.tasks] counters in
    {!Obs.Metrics}, so [Engine.with_instr] and [omcount --stats] pick
    them up like any other metric. *)

(** Number of jobs (total domains, including the submitting one). The
    initial value comes from [OMEGA_JOBS], defaulting to
    [Domain.recommended_domain_count ()]. *)
val jobs : unit -> int

(** [set_jobs n] (clamped to [1, 64]) changes the pool size; an existing
    pool of a different size is torn down and respawned lazily on next
    use. [set_jobs 1] disables parallelism entirely — every fan-out
    point falls back to the plain serial code path. *)
val set_jobs : int -> unit

(** [jobs () > 1]: whether fan-out points should use the pool. *)
val parallel_enabled : unit -> bool

type 'a future

(** [spawn f] queues [f] on the calling domain's queue (runs [f]
    immediately when [jobs () = 1]). Exceptions raised by [f] are
    captured and re-raised by {!await} with their backtrace. *)
val spawn : (unit -> 'a) -> 'a future

val await : 'a future -> 'a

(** [map_list f xs]: apply [f] to every element through the pool,
    returning results in input order. Serial ([List.map]) when the pool
    is disabled or [xs] has fewer than two elements.

    On failure, every future is still awaited before the {e first}
    failure in input order is re-raised with its original backtrace — a
    batch never leaks an unjoined task, the choice of exception is
    deterministic, and under a tripped budget the drained stragglers
    fail promptly at their first checkpoint. *)
val map_list : ('a -> 'b) -> 'a list -> 'b list

(** [map_list_results f xs] is {!map_list} that hands back per-item
    outcomes instead of re-raising: an item whose task raised yields
    [Error (exn, backtrace)] (a task killed by cancellation yields
    [Error (Obs.Budget.Exhausted _, _)]). Used by the governed engine to
    keep the clauses that finished when others ran out of budget. *)
val map_list_results :
  ('a -> 'b) -> 'a list -> ('b, exn * Printexc.raw_backtrace) result list

(** [map_list_weighted ~weight f xs] is {!map_list} with a
    longest-task-first submission order: items are {e spawned} in
    decreasing [weight] (ties broken by input position) so predicted-
    heavy work starts before light work, while results are returned —
    and the first failure re-raised — in {e input} order. Since only
    spawn order changes and [f] must be order-insensitive anyway under
    a work-stealing pool, determinism is exactly that of {!map_list}.
    Used by the engine's clause fan-out, with the planner's weights,
    to schedule splinter-heavy clauses first. *)
val map_list_weighted : weight:('a -> int) -> ('a -> 'b) -> 'a list -> 'b list

(** {b Cancellation.} Every pool task polls
    [Obs.Budget.task_interrupt] as it starts: once the ambient budget
    trips (or is cancelled), tasks not yet started fail instantly with
    [Exhausted] instead of running, and the [pool.cancelled_tasks]
    counter records each such kill. Tasks already running stop at their
    next fuel checkpoint. The pool itself stays up and reusable. *)

(** Join all worker domains and drop the pool (respawned lazily on next
    use). Registered [at_exit]. *)
val teardown : unit -> unit
