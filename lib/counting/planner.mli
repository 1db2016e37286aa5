(** Cost-model-driven per-clause planning for the counting engine.

    The engine's static knobs (strategy, flexible vs Tawbi order,
    backend) pick an elimination order greedily and pay full splinter
    cost everywhere. This module scores candidate elimination variables
    and whole clauses from {e static features} of the clause — bound-pair
    counts, coefficient magnitudes, the predicted residue-splinter
    fan-out of Pugh's exact-shadow condition (the
    {!Gfcount.estimate_fanout} family), stride density — and produces a
    per-clause {!decision}: which backend to run, which variable to
    eliminate next, and a scheduling weight for the pool. The planner is
    the engine's only pipeline and, under the default [backend = Auto],
    its only router to the generating-function backend.

    {b Determinism.} Every function here is a pure function of the
    clause (and the planner inputs [exact] / [const_poly] / [vars]), so
    plans are byte-identical at every [--jobs] level.

    {b Byte-identity.} A decision may only take actions whose final
    rendering provably equals the plain path's (the engine's static
    score order, every clause through Pugh): routing a fully
    concrete clause to the generating-function backend (its Pugh pieces
    collapse to the same single constant piece in [Value.simplify]),
    reordering eliminations {e within} such a clause (every leaf guard is
    closed, so the pieces still collapse to one constant), pruning
    provably infeasible work (dropped downstream by
    [Solve.is_feasible]-based filters), and reordering pool {e spawns}
    while results merge in input order. [plan_clause] encodes exactly
    these side conditions. *)

type decision = {
  concrete : bool;
      (** every free variable of the clause is a summation variable (no
          symbolic constants) — the precondition for collapse-based
          byte-identity *)
  adaptive_order : bool;
      (** use {!pick_var} instead of the engine's static score for this
          clause's eliminations (set only when [exact], [const_poly] and
          [concrete] — the collapse-safe zone) *)
  use_gf : bool;
      (** route the clause to {!Gfcount.count_clause} (with per-clause
          fallback to Pugh) under [backend = Auto] *)
  predicted_fanout : int;
      (** {!Gfcount.estimate_fanout}: the capped product of non-unit
          coefficients and stride moduli — the residue splinters the
          Pugh engine would pay *)
  rows : int;  (** constraint count of the clause *)
  weight : int;
      (** deterministic scheduling weight (heavier = start earlier on
          the pool): rows scaled by predicted fan-out *)
}

(** [plan_clause ~exact ~const_poly ~vars c]: the adaptive plan for one
    disjoint clause. [exact] is whether the engine strategy is [Exact];
    [const_poly] whether the summand is a constant. *)
val plan_clause :
  exact:bool ->
  const_poly:bool ->
  vars:Presburger.Var.t list ->
  Omega.Clause.t ->
  decision

(** [order c vars] is the planned elimination order: the summation
    variables occurring in [c], sorted by the cost model against the
    {e original} clause (the engine re-scores as the clause evolves;
    this is the static plan shown by [--explain-plan] and report
    cards). *)
val order : Omega.Clause.t -> Presburger.Var.t list -> Presburger.Var.t list

(** [pick_var c vars] is the cost model's choice of next elimination
    variable: lexicographically least
    [(bound pairs, predicted splinter fan-out, non-unit flag)], first
    variable winning ties — a strict refinement of the engine's static
    score that breaks bound-pair ties toward the cheaper splinter. *)
val pick_var : Omega.Clause.t -> Presburger.Var.t list -> Presburger.Var.t

(** Per-variable features against a clause, for explain output:
    [(pairs, splinter, nonunit)] as used by {!pick_var}. *)
val var_score : Omega.Clause.t -> Presburger.Var.t -> int * int * int

(** Record that a clause actually ran with an adaptive order (the
    [planner.adaptive_clauses] metric). Clauses routed to the gf backend
    are counted by the engine's [engine.gf_clauses] and
    [engine.gf_fallback]. *)
val note_adaptive : unit -> unit

(** [explain ~exact ~const_poly ~vars cls] is the human-readable plan
    dump behind [omcount --explain-plan]: one line per clause with rows,
    predicted fan-out, the planner's backend choice, and the planned
    elimination order. *)
val explain :
  exact:bool ->
  const_poly:bool ->
  vars:Presburger.Var.t list ->
  Omega.Clause.t list ->
  string
