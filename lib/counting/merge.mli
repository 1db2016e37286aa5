(** Merging residue-class pieces into quasi-polynomials.

    Exact splintering produces answers as families of pieces guarded by
    stride constraints, e.g. Example 6 first yields
    [(Σ : 2≤n ∧ 2|n : …) + (Σ : 1≤n ∧ 2|n−1 : …)]. When a family covers
    {e every} residue of a modulus [m] on the same affine expression [e]
    under an otherwise-identical guard, it can be folded into a single
    piece whose value uses an [(e mod m)] atom — how the paper reaches
    [(3n² + 2n − (n mod 2))/4]. The fold interpolates a polynomial of
    degree [< m] through the residue values (Lagrange, over the
    quasi-polynomial ring). *)

(** [merge_residues v] performs all such folds; pieces that do not form a
    complete residue family are returned unchanged. The result denotes the
    same function as the input. *)
val merge_residues : Value.t -> Value.t

(** The largest modulus {!merge_residues} folds (a family's interpolant
    has degree below it). The exact engine splinters a rational bound
    only when the fan-out is at most this; past it, a bound over
    symbolic constants alone takes the floor/mod form directly. *)
val max_period : int

(** {1 Deterministic fan-out reduction} *)

(** [combine parts] merges per-task partial values back into one value by
    concatenating them in input (task-index) order. Since a {!Value.t}
    denotes the sum of its pieces, [combine] is associative and
    order-insensitive {e as a function}; fixing input order additionally
    makes the parallel engine's output byte-identical to the serial
    engine's. *)
val combine : Value.t list -> Value.t

(** A canonical form for comparing values up to piece order:
    [Value.simplify] (normalize guards, fold same-guard pieces) followed
    by a total sort on (guard, value). [canonical (combine parts)] is
    invariant under permutation of [parts] and under re-association of
    nested [combine]s. *)
val canonical : Value.t -> Value.t
