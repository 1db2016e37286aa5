(** Exact rational numbers over {!Zint}.

    Used for quasi-polynomial coefficients: Faulhaber closed forms and
    Bernoulli numbers have rational coefficients even though every sum of
    integers they denote is integral. Values are kept normalized: the
    denominator is positive and coprime with the numerator. *)

type t

(** {1 Construction} *)

val zero : t
val one : t
val minus_one : t

(** [make num den] normalizes [num/den]. Raises [Division_by_zero] when
    [den] is zero. *)
val make : Zint.t -> Zint.t -> t

val of_zint : Zint.t -> t
val of_int : int -> t

(** [of_ints a b] is the rational [a/b]. *)
val of_ints : int -> int -> t

(** {1 Accessors} *)

(** Numerator (sign lives here). *)
val num : t -> Zint.t

(** Denominator, always positive. *)
val den : t -> Zint.t

(** [to_zint t] is [Some n] when [t] is integral. *)
val to_zint : t -> Zint.t option

val is_integral : t -> bool
val is_zero : t -> bool
val sign : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [div a b] raises [Division_by_zero] when [b] is zero. *)
val div : t -> t -> t

val inv : t -> t

(** [pow t n] for nonnegative [n]. *)
val pow : t -> int -> t

(** [mul_zint t z] scales by an integer. *)
val mul_zint : t -> Zint.t -> t

(** {1 Rounding} *)

(** [floor t] is the greatest integer [<= t]. *)
val floor : t -> Zint.t

(** [ceil t] is the least integer [>= t]. *)
val ceil : t -> Zint.t

(** {1 Comparison and printing} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** Decimal-fraction rendering, e.g. ["-3/4"], or ["5"] when integral. *)
val to_string : t -> string

(** [add_to_buffer b t] appends [to_string t] to [b]. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
