(** Bounded feasibility pre-filter (Seshia–Bryant style): cheap, sound
    refutation of clauses and splinter pins before the expensive exact
    machinery runs.

    The Omega test's splinter loops ({!Solve.eliminate}) enumerate pin
    equalities whose right-hand sides are often provably outside the
    clause's feasible region — S33's disjoint elimination expands ~462k
    pins of which 4 survive exact projection. This module computes
    {e interval certificates} good enough to skip such work:

    + {e interval propagation}: a few rounds of bounds propagation over
      the clause's inequalities and equalities derive a sound interval
      for every variable (any integer solution of the clause lies inside
      the box);
    + {e affine intervals}: the termwise interval of an affine form under
      those variable bounds, used by {!Solve} to clamp splinter-pin loops
      to the values a pin equality can actually take;
    + {e refutation}: a constraint whose interval excludes its relation
      (an inequality that is everywhere negative, an equality that cannot
      reach zero, a stride whose interval contains no multiple) proves
      the clause infeasible;
    + {e box probe}: when every variable's interval is finite and the box
      is small, complete enumeration either finds a witness
      ([Feasible]) or proves infeasibility ([Refuted]) — the
      parameterized small-bounds search of Seshia–Bryant
      (arXiv:cs/0508044).

    {b Soundness.} [Refuted] is only returned on a proof of integer
    infeasibility (interval exclusion, or exhaustion of a box that
    provably contains every solution); [Feasible] only on a concrete
    integer witness checked against every constraint. The filter never
    decides — [Unknown] falls through to the exact solver — so armed
    runs produce byte-identical answers: every clause or pin the filter
    removes would have been dropped downstream by
    [Solve.is_feasible]-based filtering or [Value.simplify].

    {b Determinism.} Verdicts and intervals are pure functions of the
    clause, independent of domain and memo state — the planner's
    requirement that plans never depend on what ran before.

    {b Arming.} The filter is armed by default. {!Dnf} disarms it with
    {!with_armed} for [Not] and [Forall] subtrees, where dropping an
    infeasible disjunct of the negand would change the complement's
    syntax; the solver's elimination memo salts its key with the bit so
    the two modes never share entries. The flag is domain-local, so a
    disarmed subtree never affects a concurrent computation on another
    domain. Each probe charges one
    {!Obs.Budget} fuel unit (plus one per enumeration chunk), so
    governed budgets account pre-filter work like any other solver
    step. *)

type verdict = Feasible | Refuted | Unknown

val verdict_name : verdict -> string

(** {1 Arming} *)

(** Whether the pre-filter is armed on the calling domain (default
    [true]). *)
val armed : unit -> bool

(** [with_armed b f] runs [f] with the armed flag set to [b], restoring
    the previous value on exit (also on exception). *)
val with_armed : bool -> (unit -> 'a) -> 'a

(** {1 Intervals} *)

(** A (possibly half-open) integer interval. [None] is the corresponding
    infinity. Invariant: when both ends are present, [lo <= hi]. *)
type interval = { lo : Zint.t option; hi : Zint.t option }

val top : interval

(** A sound box for the clause: variable intervals derived by bounded
    interval propagation over the clause's equalities and inequalities.
    Every integer solution of the clause lies inside the box. *)
type env

val env_of_clause : Clause.t -> env

(** The interval of an affine form under the environment's variable
    bounds (termwise; exact for constant forms). *)
val affine_interval : env -> Presburger.Affine.t -> interval

(** {1 Probing} *)

(** [probe c] is a bounded feasibility check of the {e constraint
    system} of [c] (all variables treated as existentially quantified,
    the same notion {!Solve.is_feasible} decides): [Refuted] proves
    there is no integer solution, [Feasible] exhibits one, [Unknown]
    means the bounded search was inconclusive. Charges {!Obs.Budget}
    fuel per probe. *)
val probe : Clause.t -> verdict
