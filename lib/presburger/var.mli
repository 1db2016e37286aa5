(** Variables of Presburger formulas.

    Two kinds: named variables (program variables, symbolic constants,
    summation variables) and {e wildcards} — auxiliary existentially
    quantified variables introduced by desugaring (floors, mods, strides)
    and by the Omega test's equality elimination. The paper calls these
    "wildcards: quantified variables used only in this clause"
    (Section 4.5.2). *)

type t = Named of string | Wild of int

val named : string -> t

(** [fresh_wild ()] allocates a wildcard unique within the calling
    domain's installed counter cell (the process-global default unless
    {!install_counter} swapped it). The cell is atomic, so wildcards
    minted by concurrent domains sharing a cell never collide. *)
val fresh_wild : unit -> t

(** [reset_fresh ()] rewinds the installed wildcard counter to 0.
    {b Test-only}: it makes runs deterministic and order-independent;
    resetting while clauses from before the reset are still alive can
    identify unrelated wildcards if such clauses are later conjoined. *)
val reset_fresh : unit -> unit

(** {2 Per-request counter cells}

    A long-running server installs a fresh cell per request so wild
    numbering restarts at [$1] for every request (required for
    byte-identical repeated answers), while clauses from different
    requests never mix. The installation is per-domain. *)

(** A fresh counter cell starting at 0. *)
val new_counter : unit -> int Atomic.t

(** The calling domain's installed cell (the process-global default if
    none was installed). *)
val current_counter : unit -> int Atomic.t

(** [install_counter c] makes [c] the calling domain's cell. The caller
    is responsible for restoring {!current_counter}'s previous value. *)
val install_counter : int Atomic.t -> unit

val is_wild : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

(** Unique printable name: the name itself, or ["$k"] for wildcards. *)
val to_string : t -> string

(** [add_to_buffer b v] appends [to_string v] to [b]. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
