(** Certificate support for the Omega core: a recorder the solver and
    engine feed while computing an answer, and a post-hoc witness
    generator that turns recorded refutations into independently
    checkable infeasibility proofs.

    The flow mirrors PR 8's telemetry cards: with the recorder {e armed}
    (only under [--certify]), the drop sites of the pipeline — the DNF
    feasibility filter, [Value.simplify], the engine's normalize-refuted
    subtrees, and the pre-filter's pin/branch/region refutations — push snapshots
    of the clauses they discard; the generating-function backend pushes
    the clauses it counted. Recording is purely observational (the
    answer path never reads recorder state), so certified answers are
    byte-identical to uncertified ones. After the
    answer run, {!Counting.Certify} drains the events, runs {!witness}
    on each refuted snapshot, and assembles the certificate JSON that
    [lib/certcheck] replays.

    Witnesses come in three shapes, checked by ~300 lines of
    solver-independent arithmetic:

    - [Farkas λ]: an integer combination of the clause's rows
      (nonnegative on [geqs], any sign on [eqs]) whose variable
      coefficients cancel and whose constant is negative — the clause is
      rationally infeasible.
    - [Stride_gap]: one row [m | Σaᵢvᵢ + c] (an equality is [m = 0],
      i.e. [0 | e] ⇔ [e = 0]) with [gcd(m, gcd aᵢ) ∤ c] — no integer
      point satisfies it.
    - [Enum]: two combinations proving an exact integer interval
      [lo ≤ v ≤ hi] for some variable, with a sub-witness for every
      integer in it ([lo > hi] is the dark-shadow-style gap: the
      rational interval contains no integer).

    Generation is best-effort and bounded (row/width/node caps): a
    refutation it cannot witness is dropped from the certificate and
    counted in [cert.unwitnessed] — the certificate stays sound, just
    less complete as an audit of the engine's dropping decisions. *)

type snapshot = {
  wilds : Presburger.Var.t list;  (** sorted, duplicate-free *)
  eqs : Presburger.Affine.t list;  (** each [= 0] *)
  geqs : Presburger.Affine.t list;  (** each [≥ 0] *)
  strides : (Zint.t * Presburger.Affine.t) list;  (** each [m | e] *)
}

(** Build a snapshot from clause parts (sorts and dedups [wilds]). *)
val snapshot :
  wilds:Presburger.Var.t list ->
  eqs:Presburger.Affine.t list ->
  geqs:Presburger.Affine.t list ->
  strides:(Zint.t * Presburger.Affine.t) list ->
  snapshot

(** Where a refuted clause was dropped. *)
type site =
  | Dnf  (** the final feasibility filter of [Dnf.of_formula] *)
  | Gist  (** [Gist.remove_redundant] detected infeasibility *)
  | Simplify  (** [Value.simplify] dropped an infeasible piece guard *)
  | Subtree  (** an engine recursion subtree whose clause normalizes to false *)
  | Region  (** a pre-filter real-shadow region refutation *)
  | Pin  (** a splinter pin skipped by the pre-filter's interval clamp *)
  | Branch  (** a projection branch pruned by the pre-filter *)

val site_name : site -> string

type gf_entry = {
  gf_vars : string list;  (** the counting variables *)
  gf_clause : snapshot;
  gf_count : Zint.t;  (** the backend's claimed point count *)
}

type event = Refuted of site * snapshot | Counted of gf_entry

(** {1 Recorder} *)

(** Whether recording is armed for the calling domain's current request.
    A single domain-local load: drop sites guard their snapshot
    construction on it, so disarmed runs pay one branch and allocate
    nothing. *)
val armed : unit -> bool

(** True once the refutation cap is reached: hot loops (the pin clamp)
    use it to stop building snapshots early. Monotone while armed. *)
val full : unit -> bool

(** Thread-safe; drops (and counts) events beyond an internal cap. *)
val record_refuted : site -> snapshot -> unit

val record_gf : vars:string list -> clause:snapshot -> count:Zint.t -> unit

(** [with_recording f] arms a fresh per-request recorder, runs [f], and
    returns its result with the recorded events (in recording order)
    and the number of events dropped at the cap. Always restores the
    previous recorder (if any), also on exceptions. *)
val with_recording : (unit -> 'a) -> 'a * event list * int

(** {1 Witnesses} *)

type rowref = Req of int | Rgeq of int

(** An integer row combination: [(ref, λ)] with [λ ≥ 0] required on
    [Rgeq] references. *)
type comb = (rowref * Zint.t) list

type witness =
  | Farkas of comb
  | Stride_gap of [ `Eq of int | `Stride of int ]
  | Enum of {
      var : Presburger.Var.t;
      lo : Zint.t;
      hi : Zint.t;
      lo_comb : comb;  (** derives [a·var + c ≥ 0], [a > 0], [lo = ⌈−c/a⌉] *)
      hi_comb : comb;  (** derives [a·var + c ≥ 0], [a < 0], [hi = ⌊c/−a⌋] *)
      cases : witness list;
          (** [cases.(k)] refutes the snapshot with [var := lo + k];
              empty iff [lo > hi] (integer-gap refutation) *)
    }

(** Generate an infeasibility witness for a (refuted) snapshot, or
    [None] when the bounded search gives up — then [cert.unwitnessed]
    is incremented. A returned witness is valid by construction, but
    nothing downstream trusts that: the independent checker re-verifies
    every step. *)
val witness : snapshot -> witness option

(** {1 JSON} *)

(** All integers are serialized as strings (bigint-safe: the checker's
    abstract-int backends parse them without a float round-trip). *)

val clause_json : snapshot -> Obs.Ojson.t

val witness_json : witness -> Obs.Ojson.t

val gf_json : gf_entry -> Obs.Ojson.t

(** {1 Metrics} *)

(** [cert.emitted]: incremented once per assembled certificate (called
    by the assembler, counted here so the family lives in one place). *)
val note_emitted : unit -> unit
