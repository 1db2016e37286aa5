(** Conjunctive clauses — the working representation of the Omega test.

    A clause denotes [∃ wilds. (⋀ eqs = 0) ∧ (⋀ geqs ≥ 0) ∧ (⋀ c | e)].
    Wildcards are the paper's auxiliary variables: a clause whose wildcards
    appear (only) in equalities is in {e projected format} (Section 2.1);
    a clause with no wildcards whose divisibility facts are explicit is in
    {e stride format}. {!eqs_to_strides} converts projected format to
    stride format via Smith normal form. *)

type t = {
  wilds : Presburger.Var.Set.t;
  eqs : Presburger.Affine.t list;  (** each [= 0] *)
  geqs : Presburger.Affine.t list;  (** each [≥ 0] *)
  strides : (Zint.t * Presburger.Affine.t) list;  (** each [c | e], c > 0 *)
}

(** The clause [TRUE]. *)
val top : t

val make :
  ?wilds:Presburger.Var.t list ->
  ?eqs:Presburger.Affine.t list ->
  ?geqs:Presburger.Affine.t list ->
  ?strides:(Zint.t * Presburger.Affine.t) list ->
  unit ->
  t

(** Conjunction of two clauses (wildcard sets must be disjoint, which
    freshness guarantees; use {!rename_wilds} first when the clauses may
    share ancestry). *)
val conjoin : t -> t -> t

(** Fresh wildcard names throughout. Conjoining two clauses that descend
    from a common parent without renaming would wrongly identify their
    wildcards: [∃α.(P ∧ Q)] is stronger than [(∃α.P) ∧ (∃α.Q)]. *)
val rename_wilds : t -> t

(** Substitute away every wildcard that has a ±1 coefficient in some
    equality (the cheap, always-exact part of equality elimination). *)
val solve_unit_wilds : t -> t

(** Free (non-wildcard) variables. *)
val free_vars : t -> Presburger.Var.Set.t

(** All variables including wildcards. *)
val all_vars : t -> Presburger.Var.Set.t

(** Number of atomic constraints. *)
val size : t -> int

(** {1 Normalization}

    [normalize c] gcd-reduces every constraint (tightening inequality
    constants — the Omega test's normalization step), folds constants,
    removes syntactic duplicates and single-constraint redundancies
    (same left-hand side, weaker constant), turns opposing inequality
    pairs into equalities, and returns [None] when a constraint is
    unsatisfiable on its face (negative constant inequality, equality
    with non-dividing gcd, contradictory bounds on identical forms). *)
val normalize : t -> t option

(** {1 Conversions} *)

(** [subst c v e] substitutes the affine form [e] for [v] everywhere. *)
val subst : t -> Presburger.Var.t -> Presburger.Affine.t -> t

(** Replace each stride [c | e] by [∃α. e = cα]. The result has no
    [strides]. *)
val strides_to_eqs : t -> t

(** Rewrite the clause so that no wildcard appears in an equality: the
    wildcard-equality system is re-parameterized by Smith normal form into
    stride and equality constraints over free variables (plus, possibly,
    substitutions of wildcards into remaining inequalities). Wildcards
    appearing in inequalities are untouched (eliminate them first with
    {!Solve.project}). Returns [None] when the equality system is
    integer-infeasible outright. *)
val eqs_to_strides : t -> t option

(** Presburger formula denoted by the clause. *)
val to_formula : t -> Presburger.Formula.t

(** Decide the clause under an environment for its free variables (test
    oracle; see {!Presburger.Formula.holds}). *)
val holds : ?box:int -> (Presburger.Var.t -> Zint.t) -> t -> bool

(** [pp] prints the atoms, equalities, inequalities and then strides,
    joined by [" &&@ "] (a break hint), each atom as one string; a
    clause with wildcards is wrapped as [(exists $1,$2:@ …)], one with no
    atoms and no wildcards is [TRUE]. *)
val pp : Format.formatter -> t -> unit

(** [to_string c] is [pp]'s text on a fresh formatter (margin 78). *)
val to_string : t -> string

(** [add_to_buffer b c] appends [pp]'s text with every break hint
    printed as one space: one line whatever its length. Two clauses
    have equal flat renderings exactly when they have equal
    [to_string]s, so either serves as a grouping key. *)
val add_to_buffer : Buffer.t -> t -> unit

(** Immutable snapshot of the clause for certificate recording. *)
val snapshot : t -> Cert.snapshot
