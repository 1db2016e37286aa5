(** Generating-function counting backend (Barvinok's algorithm).

    A second, independently derived counter for the quantifier-free,
    bounded-dimension, fully concrete case: per disjoint clause, the
    solution set is re-parameterized onto lattice coordinates (equalities
    and strides solved by Smith normal form via {!Ilinalg.solve}), the
    vertices of the resulting rational polytope are enumerated, each
    tangent cone is triangulated and signed-decomposed into unimodular
    cones in the {e dual} space ({!Ilinalg.Cone}), and the short rational
    generating function given by Brion's theorem is specialized at z = 1
    to produce the exact count.

    Used by {!Engine} as the [Gf] backend and per-clause where the
    planner routes under [Auto];
    also a third oracle for the differential test harness. *)

(** [count_clause ~vars c] is [Some n] where [n] is the number of
    assignments of [vars] satisfying the clause, or [None] when the
    backend does not apply: symbolic parameters (free variables outside
    [vars]), residual wildcards in inequalities, dimension or constraint
    count beyond the backend's caps, or an unbounded solution set (the
    caller falls back to the Pugh engine, which raises its usual
    [Unbounded]).

    Infeasible clauses count 0. Charges one {!Obs.Budget} unit per cone
    visited and per vertex-enumeration subset, so governed runs meter the
    decomposition exactly like engine reduction steps. *)
val count_clause :
  vars:Presburger.Var.t list -> Omega.Clause.t -> Zint.t option

(** [estimate_fanout vars c] statically estimates the residue-splinter
    fan-out the Pugh engine would pay on this clause: the capped product
    of non-unit summation-variable coefficients in the inequalities and
    stride moduli mentioning a summation variable. Deterministic in the
    clause alone, so the planner's routing choices never depend on what
    ran before. *)
val estimate_fanout : Presburger.Var.t list -> Omega.Clause.t -> int
