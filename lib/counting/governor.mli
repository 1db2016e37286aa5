(** Resource-governed counting: budgets, graceful degradation, and
    structured outcomes.

    Omega-style simplification is worst-case super-exponential
    (splintering, DNF expansion), so a long-running service cannot just
    call [Engine.sum] on untrusted input: a pathological query would
    hang a domain. [Governor.sum] runs the same
    engine under a {!budget} — wall-clock deadline, step fuel, splinter
    fan-out cap, live-clause cap — checked cooperatively at the engine's
    existing instrumentation points, and {e degrades instead of
    crashing}: on exhaustion it returns the disjoint pieces already
    computed, a sound under-approximation, and (where cheap) a
    real-shadow over-approximation, together with the exhaustion reason.

    {b Soundness of the bounds} (for nonnegative summands — counts
    always are): the engine's clause list is disjoint, and each
    completed clause's pieces are exact (strategy [Exact]) or
    themselves lower bounds (strategy [Lower]) on disjoint regions, so
    the sum of completed pieces never exceeds the true total — that sum
    is {!partial.lower}. The over-approximation {!partial.upper} is an
    independent whole-formula [Upper]-strategy (real-shadow) run under a
    small fresh fuel budget; [None] when even that budget trips. For
    [Symbolic] and [Upper] runs, [lower] is conservatively [0] (their
    partial pieces carry approximate emptiness guards, so a subset sum
    is not guaranteed below the total).

    One governed query runs at a time per {e domain} (like
    [Engine.with_instr]), serially; omegad runs one per handler domain
    concurrently.

    Budget activity surfaces as [budget.trips] and [budget.fuel_used] in
    {!Obs.Metrics} (so [--stats] and traces pick it up), and exhaustion
    emits a ["budget.trip"] trace instant carrying the reason. *)

type budget = {
  deadline_ms : int option;  (** wall-clock deadline, milliseconds *)
  fuel : int option;
      (** total step allowance: one unit per engine reduction step,
          elimination query, projection step, or feasibility probe *)
  max_fanout : int option;  (** cap on a single splinter's branch count *)
  max_clauses : int option;  (** cap on any DNF clause list *)
}

(** No limits. Still installs a control block, so cancellation and chaos
    injection stay observable. *)
val unlimited : budget

(** Re-export of [Obs.Budget.reason] for callers' convenience. *)
type reason = Obs.Budget.reason =
  | Deadline
  | Fuel
  | Fanout
  | Clauses
  | Cancelled

val reason_name : reason -> string

type partial = {
  pieces : Value.t;
      (** simplified pieces of the clauses that completed — disjoint,
          and exactly what [Engine.sum] would have contributed for them *)
  pieces_done : int;  (** [List.length pieces] *)
  clauses_done : int;  (** completed DNF clauses *)
  clauses_total : int;
      (** clauses in the DNF; [0] when the budget tripped during DNF
          conversion itself *)
  reason : reason;  (** the {e first} limit that tripped *)
  lower : Value.t;  (** sound under-approximation (see above) *)
  upper : Value.t option;
      (** real-shadow over-approximation, when cheap; [None] if its own
          small budget also tripped *)
}

type outcome = Complete of Value.t | Partial of partial

(** [ctrl_of b] is the control block [sum] would build from budget [b].
    A server builds it explicitly and passes it as [?ctrl] so it can
    hold on to the block — registering it for out-of-band
    [Obs.Budget.cancel] on shutdown — while the query runs. *)
val ctrl_of : budget -> Obs.Budget.ctrl

(** [sum ?budget ?ctrl ?opts ?stats ~vars f poly] is [Engine.sum] under
    a budget. When [?ctrl] is given it is installed instead of a block
    built from [?budget] (whose limits are then ignored). With an
    unlimited budget (and no injected faults) the result is [Complete v]
    with [v] {e byte-identical} to [Engine.sum]'s answer. Non-budget
    failures ([Engine.Unbounded], [Omega.Error.Omega_error], …)
    propagate unchanged. *)
val sum :
  ?budget:budget ->
  ?ctrl:Obs.Budget.ctrl ->
  ?opts:Engine.options ->
  ?stats:Engine.stats ->
  vars:string list ->
  Presburger.Formula.t ->
  Qpoly.t ->
  outcome

(** [count ?budget ?ctrl ?opts ?stats ~vars f = sum ~vars f 1]. *)
val count :
  ?budget:budget ->
  ?ctrl:Obs.Budget.ctrl ->
  ?opts:Engine.options ->
  ?stats:Engine.stats ->
  vars:string list ->
  Presburger.Formula.t ->
  outcome
