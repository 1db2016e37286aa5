(** Arbitrary-precision signed integers with a small-integer fast path.

    The Omega test and Smith-normal-form computations can produce
    coefficients that overflow native 63-bit integers (Fourier-Motzkin
    elimination multiplies coefficient pairs at every step), so every
    coefficient in this repository is a [Zint.t].

    The representation is two-constructor, zarith-style: values in the
    native [int] range live in an immediate [Small] constructor and all
    arithmetic on them runs on native ints with explicit overflow checks;
    values outside that range fall back to sign-magnitude base-2{^15}
    limbs ([Big]). The canonicalization invariant — [Big] never holds a
    value representable as [Small] — makes [equal], [compare], [hash],
    [sign] and [to_int] O(1) in the common case. All operations are
    purely functional. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t
val ten : t

(** {1 Conversions} *)

(** [of_int n] converts a native integer (including [min_int]). *)
val of_int : int -> t

(** [to_int t] is [Some n] when [t] fits a native [int], else [None]. *)
val to_int : t -> int option

(** [to_int_exn t] converts or raises [Failure] when out of range. *)
val to_int_exn : t -> int

(** [of_string s] parses an optionally signed decimal literal.
    Raises [Invalid_argument] on malformed input. *)
val of_string : string -> t

(** [to_string t] is the decimal representation, ["-"]-prefixed when
    negative. *)
val to_string : t -> string

(** [add_to_buffer b t] appends [to_string t] to [b]; a native-size
    value allocates nothing. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool

(** [hash t] depends only on the mathematical value (both representation
    arms fold the same base-2{^15} limb sequence), so
    [equal a b] implies [hash a = hash b] by construction. *)
val hash : t -> int

(** {1 Representation introspection}

    For the boundary test-suite; not meant for algorithmic use. *)

(** [is_small t] is [true] iff the value is held in the immediate
    constructor. Under the canonicalization invariant this is equivalent
    to [to_int t <> None]. *)
val is_small : t -> bool

(** [repr_canonical t] checks the representation invariant at the value
    level: a [Big] must be sign-normalized, trimmed, and hold a magnitude
    strictly outside the native [int] range. Always [true] unless there
    is a promotion/demotion bug. *)
val repr_canonical : t -> bool

(** [sign t] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool
val is_one : t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

(** [mul_int t n] multiplies by a native integer. *)
val mul_int : t -> int -> t

(** [add_int t n] adds a native integer. *)
val add_int : t -> int -> t

(** {1 Division}

    Three division conventions are provided; all raise [Division_by_zero]
    on a zero divisor. *)

(** [tdiv_rem a b] truncates toward zero (the native [(/)], [(mod)]
    convention): [a = q*b + r] with [|r| < |b|] and [sign r] in
    [{0, sign a}]. *)
val tdiv_rem : t -> t -> t * t

val tdiv : t -> t -> t
val trem : t -> t -> t

(** [fdiv_rem a b] rounds the quotient toward negative infinity; the
    remainder has the sign of [b]. This is the convention used when
    desugaring [floor(e/c)] in Presburger formulas. *)
val fdiv_rem : t -> t -> t * t

val fdiv : t -> t -> t
val fmod : t -> t -> t

(** [cdiv a b] rounds the quotient toward positive infinity (used when
    desugaring [ceil(e/c)]). *)
val cdiv : t -> t -> t

(** [divexact a b] is [a / b] assuming [b] divides [a] exactly (checked;
    raises [Invalid_argument] otherwise). *)
val divexact : t -> t -> t

(** [divides c e] tests whether [c] evenly divides [e]. [divides zero e]
    is [is_zero e]. *)
val divides : t -> t -> bool

(** {1 Number theory} *)

(** [gcd a b] is the nonnegative greatest common divisor;
    [gcd zero zero = zero]. *)
val gcd : t -> t -> t

val lcm : t -> t -> t

(** [gcd_ext a b] is [(g, x, y)] with [g = gcd a b = a*x + b*y]. *)
val gcd_ext : t -> t -> t * t * t

(** [pow t n] raises to a nonnegative native power. Raises
    [Invalid_argument] when [n < 0]. *)
val pow : t -> int -> t

(** {1 Infix operators}

    [Zint.Infix] is meant to be opened locally:
    [Zint.Infix.(a + b * c)]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t (* truncated *)
  val ( mod ) : t -> t -> t (* truncated remainder *)
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
