(** Guarded symbolic values — the answers of the counting engine.

    A value is a finite sum of {e pieces} [(Σ : guard : poly)]: when the
    guard (a Presburger condition over the symbolic constants, possibly
    with stride constraints) holds, the piece contributes the
    quasi-polynomial [poly], otherwise [0] (the paper's "nullary
    summation" notation, Section 1). Pieces from the engine have disjoint
    guards, but the sum semantics does not require it. *)

type piece = { guard : Omega.Clause.t; value : Qpoly.t }
type t = piece list

val zero : t

(** [piece guard poly] is a single guarded piece ([poly] unguarded when
    [guard] is {!Omega.Clause.top}). *)
val piece : Omega.Clause.t -> Qpoly.t -> t

val add : t -> t -> t
val neg : t -> t
val scale : Qnum.t -> t -> t

(** [map_values f v] transforms each piece's polynomial. *)
val map_values : (Qpoly.t -> Qpoly.t) -> t -> t

(** {1 Simplification} *)

(** Drop pieces with infeasible or zero content; combine pieces with
    syntactically identical guards; drop guards that are trivially true. *)
val simplify : t -> t

(** {1 Evaluation} *)

(** [eval env v] evaluates under an integer assignment of the symbolic
    constants (by name). Guards are decided exactly; the result is the sum
    of the enabled polynomials. *)
val eval : (string -> Zint.t) -> t -> Qnum.t

(** Like {!eval} but requires an integral result (counts always are). *)
val eval_zint : (string -> Zint.t) -> t -> Zint.t

(** {1 Printing} *)

(** [pp] prints the pieces joined by ["@ + "], each as [(poly)] or
    [(sum : guard : poly)] with the guard printed by
    {!Omega.Clause.pp}; the zero value is [0]. *)
val pp : Format.formatter -> t -> unit

(** [output fmt v] prints [to_string v]'s bytes to a fresh formatter
    [fmt] and flushes it. *)
val output : Format.formatter -> t -> unit

(** [add_to_buffer b v] appends [to_string v] to [b]. *)
val add_to_buffer : Buffer.t -> t -> unit

(** [pp]'s text inside one box on a fresh formatter (margin 78), so the
    breaks fall at the same columns in every rendering. *)
val to_string : t -> string
