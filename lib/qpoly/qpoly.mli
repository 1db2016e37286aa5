(** Multivariate quasi-polynomials with rational coefficients.

    The symbolic answers of the paper are {e quasi-polynomials}: polynomials
    over atoms that are either plain variables ([n]) or periodic terms
    ([e mod c] for an affine [e] and positive constant [c]); see Example 6,
    whose answer is [(3n² + 2n − (n mod 2)) / 4]. Coefficients are exact
    rationals ({!Qnum.t}) because Faulhaber closed forms have rational
    coefficients even though the values they denote are integers.

    The module also provides Bernoulli numbers and Faulhaber power-sum
    polynomials [F_p] satisfying [F_p(x) − F_p(x−1) = x^p] identically, so
    that [Σ_{v=L}^{U} v^p = F_p(U) − F_p(L−1)] holds for {e all} integers
    [L ≤ U] — this removes the need for the four-piece bound decomposition
    of Section 4.2 (which is still provided, as paper fidelity, by
    {!Counting}). *)

(** Affine forms with rational coefficients over named variables. *)
module Lin : sig
  type t

  val zero : t
  val const : Qnum.t -> t
  val of_int : int -> t

  (** [var v] is the affine form [1·v]. *)
  val var : string -> t

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val scale : Qnum.t -> t -> t

  (** Coefficient of [v] (zero when absent). *)
  val coeff : t -> string -> Qnum.t

  (** The constant term. *)
  val constant : t -> Qnum.t

  (** Variables with nonzero coefficient, sorted. *)
  val vars : t -> string list

  val is_const : t -> bool

  (** [subst l v r] replaces [v] by the affine form [r]. *)
  val subst : t -> string -> t -> t

  val eval : (string -> Zint.t) -> t -> Qnum.t
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

(** Atoms of quasi-polynomial monomials. *)
module Atom : sig
  type t =
    | Var of string
    | Mod of Lin.t * Zint.t
        (** [Mod (e, c)] denotes [e mod c ∈ [0, c)]; [c > 0]. The affine
            form is canonicalized: integer coefficients and constant are
            reduced into [[0, c)]. *)

  (** [modulo e c] builds a canonicalized [Mod] atom. Raises
      [Invalid_argument] unless [c > 0]. Returns a constant when the form
      reduces to one (e.g. [(2n) mod 2 = 0]), hence the return type. *)
  val modulo : Lin.t -> Zint.t -> [ `Atom of t | `Const of Zint.t ]

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

type t

(** {1 Construction} *)

val zero : t
val one : t
val const : Qnum.t -> t
val of_int : int -> t
val of_ints : int -> int -> t
val var : string -> t
val atom : Atom.t -> t
val of_lin : Lin.t -> t

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val scale : Qnum.t -> t -> t

(** [pow t n] for nonnegative [n]. *)
val pow : t -> int -> t

(** {1 Inspection} *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** Total degree. [degree zero = -1] by convention. *)
val degree : t -> int

(** Degree in variable [v], counting only [Var] atoms. *)
val degree_in : t -> string -> int

(** All variables occurring, including inside [Mod] atoms; sorted. *)
val vars : t -> string list

(** [to_const t] is [Some c] when [t] is constant. *)
val to_const : t -> Qnum.t option

(** The polynomial as a coefficient/monomial list; a monomial is a sorted
    [(atom, power)] list with positive powers and the empty list denoting
    the constant monomial. No ordering is guaranteed between entries.
    Intended for serialization (certificates); reconstruct with
    {!atom}/{!pow}/{!scale}/{!add}. *)
val monomials : t -> (Qnum.t * (Atom.t * int) list) list

(** [to_lin t] is [Some l] when [t] is affine in plain variables with no
    [Mod] atoms. *)
val to_lin : t -> Lin.t option

(** [coeffs_in t v] writes [t = Σ cₖ·vᵏ] and returns [[|c₀; …; c_d|]].
    Raises [Invalid_argument] when [v] occurs inside a [Mod] atom (the
    counting engine guarantees it never does for summation variables). *)
val coeffs_in : t -> string -> t array

(** {1 Substitution and evaluation} *)

(** [subst t v r] replaces the variable [v] by the polynomial [r] in [Var]
    atoms. Raises [Invalid_argument] when [v] occurs under a [Mod] atom and
    [r] is not affine. *)
val subst : t -> string -> t -> t

(** [subst_lin t v l] replaces [v] by an affine form, including under [Mod]
    atoms. *)
val subst_lin : t -> string -> Lin.t -> t

(** Evaluate with an integer environment. Raises [Not_found] if a variable
    is unbound. *)
val eval : (string -> Zint.t) -> t -> Qnum.t

(** Evaluate and require an integral result. *)
val eval_zint : (string -> Zint.t) -> t -> Zint.t

(** {1 Power sums} *)

(** [bernoulli n] is the Bernoulli number [B⁺_n] (convention [B₁ = +1/2]).
    Results are memoized. *)
val bernoulli : int -> Qnum.t

(** [faulhaber p x] is the polynomial [F_p] in variable [x]:
    [F_p(n) = Σ_{v=1}^n v^p] for [n ≥ 0], and
    [F_p(x) − F_p(x−1) = x^p] identically. [p ≥ 0]. *)
val faulhaber : int -> string -> t

(** [range_sum p lo hi] is [Σ_{v=lo}^{hi} v^p] as a polynomial in the
    (polynomial-valued) bounds: [F_p(hi) − F_p(lo − 1)]. Exact whenever the
    evaluated bounds satisfy [lo ≤ hi + 1]. *)
val range_sum : int -> t -> t -> t

(** [sum_over t v lo hi] sums the polynomial [t] over [v = lo .. hi]:
    applies {!coeffs_in} and {!range_sum} termwise. *)
val sum_over : t -> string -> t -> t -> t

(** {1 Printing} *)

(** [add_to_buffer b t] appends [to_string t] to [b]: the monomials in
    descending order, e.g. [1/2*n^2 - 1/4*(n mod 2) + 1/2*n]. *)
val add_to_buffer : Buffer.t -> t -> unit

(** [pp] prints [to_string] as one string, with no break hints. *)
val pp : Format.formatter -> t -> unit
val to_string : t -> string
