(** A fixed work-stealing domain pool for the counting engine.

    The pool holds [jobs - 1] worker domains (the submitting domain is
    worker 0 and participates while joining), each with its own task
    queue; idle workers steal from other queues and block on a condition
    variable when everything is dry. Tasks are chunky — whole DNF
    clauses or splinter branches — so queue traffic is negligible next
    to task work.

    {b Determinism.} The pool never reorders results: {!map_results}
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

(** [set_domain_serial ()] marks the calling domain as one that never
    fans out: on it {!map_results} and {!spawn} run inline and the pool
    is never started, whatever {!jobs} says. The mark is domain-local
    and permanent. omegad's handler domains set it, so a server runs
    one request per handler and never more compute domains than
    handlers. *)
val set_domain_serial : unit -> unit

(** [jobs () > 1] and the calling domain is not serial: whether fan-out
    points should use the pool. *)
val parallel_enabled : unit -> bool

type 'a future

(** [spawn f] queues [f] on the calling domain's queue (runs [f]
    immediately when {!parallel_enabled} is false). Exceptions raised by [f] are
    captured and re-raised by {!await} with their backtrace. *)
val spawn : (unit -> 'a) -> 'a future

val await : 'a future -> 'a

(** [map_results ?weight f xs] is the pool's one fan-out primitive:
    apply [f] to every element through the pool and return per-item
    outcomes in {e input} order — [Ok v], or [Error (exn, backtrace)]
    with the backtrace recorded where the task raised (a task killed by
    cancellation yields [Error (Obs.Budget.Exhausted _, _)]). Serial
    when the pool is disabled.

    Items are {e spawned} in decreasing [weight] (default [0]; ties
    keep input position), so predicted-heavy work starts before light
    work. Only the spawn order changes, so results are exactly those of
    an unweighted run. Every future is awaited, even after a failure: a
    batch never leaks an unjoined task into a later query, and under a
    tripped budget the stragglers fail promptly at their first
    checkpoint. The engine's clause fan-out runs on this with the
    planner's weights. *)
val map_results :
  ?weight:('a -> int) ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list

(** [map_list f xs] is {!map_results} that re-raises the {e first}
    failure in input order, with its original backtrace, after every
    item has finished — the splinter fork's form. *)
val map_list : ('a -> 'b) -> 'a list -> 'b list

(** {b Cancellation.} Every pool task polls
    [Obs.Budget.task_interrupt] as it starts: once the ambient budget
    trips (or is cancelled), tasks not yet started fail instantly with
    [Exhausted] instead of running, and the [pool.cancelled_tasks]
    counter records each such kill. Tasks already running stop at their
    next fuel checkpoint. The pool itself stays up and reusable. *)

(** Join all worker domains and drop the pool (respawned lazily on next
    use). Registered [at_exit]. *)
val teardown : unit -> unit
