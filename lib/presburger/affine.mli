(** Integer affine forms [Σ cᵢ·vᵢ + c] over {!Var} with {!Zint}
    coefficients — the terms of Presburger constraints.

    Terms support {e hash-consing at the memo boundary}: {!intern}
    canonicalizes a term in a weak table, so structurally equal interned
    terms are physically equal and key equality in the solver memo tables
    ({!Omega.Memo}) is a pointer comparison. Constructors deliberately do
    {e not} intern (interning every intermediate measured ~40% overhead
    on solver workloads); {!hash} is computed once per term and cached. *)

type t

val zero : t
val const : Zint.t -> t
val of_int : int -> t
val var : Var.t -> t

(** [term c v] is [c·v]. *)
val term : Zint.t -> Var.t -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Zint.t -> t -> t
val add_const : t -> Zint.t -> t

(** Coefficient of [v] (zero if absent). *)
val coeff : t -> Var.t -> Zint.t

val constant : t -> Zint.t

(** Variables with nonzero coefficient, ascending. *)
val vars : t -> Var.t list

(** Fold over (variable, coefficient) pairs. *)
val fold : (Var.t -> Zint.t -> 'a -> 'a) -> t -> 'a -> 'a

val is_const : t -> bool

(** [gcd_coeffs t] is the gcd of the variable coefficients (not the
    constant); zero for a constant form. *)
val gcd_coeffs : t -> Zint.t

(** [subst t v r] replaces [v] by the affine form [r]. *)
val subst : t -> Var.t -> t -> t

(** [divexact t c] divides every coefficient and the constant; raises
    [Invalid_argument] if not exact. *)
val divexact : t -> Zint.t -> t

val eval : (Var.t -> Zint.t) -> t -> Zint.t

(** Structural total order (used for canonical sorting). *)
val compare : t -> t -> int

(** Structural equality with an O(1) fast path: physically equal terms
    (in particular any two equal {!intern}ed terms) and terms with
    distinct cached hashes short-circuit. *)
val equal : t -> t -> bool

(** Amortized O(1): the structural hash, computed on first use and
    cached in the term. *)
val hash : t -> int

(** [intern t] is the canonical representative of [t]: structurally
    equal interned terms are physically equal. Representatives live in a
    weak table, so unreferenced ones are reclaimed by the GC. *)
val intern : t -> t

(** [add_to_buffer b t] appends [to_string t] to [b], e.g.
    [n - 2i + 1]. *)
val add_to_buffer : Buffer.t -> t -> unit

(** [pp] prints [to_string] as one string, with no break hints. *)
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Conversion to a rational affine form over variable {e names}
    (see {!Qpoly.Lin}); wildcards map to their [to_string] names. *)
val to_qlin : t -> Qpoly.Lin.t
