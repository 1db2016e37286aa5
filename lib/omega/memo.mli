(** Memoization substrate for the solver core.

    The Omega test re-solves the same subproblems constantly: splintering,
    bound splitting and DNF conversion generate clauses that differ only by
    wildcard renaming, and the counting recursion calls feasibility and
    [gist] on near-identical conjunctions thousands of times. All three hot
    entry points ({!Solve.is_feasible}, {!Solve.eliminate}, {!Gist.gist})
    are pure, so cached results are exact and never invalidated; this
    module provides the bounded LRU tables they use, canonical key
    construction on top of hash-consed {!Presburger.Affine} terms, and the
    global hit/miss counters read by the instrumentation layer
    ([Counting.Instr]). *)

(** {1 Counters} *)

type counters = {
  mutable feas_queries : int;
  mutable feas_hits : int;
  mutable elim_queries : int;
  mutable elim_hits : int;
  mutable gist_queries : int;
  mutable gist_hits : int;
  mutable eliminations : int;
      (** elimination bodies actually executed (shadow eliminations and
          scale-and-substitute steps); cache hits skip the work and do not
          count *)
  mutable evictions : int;  (** LRU entries dropped at capacity *)
}

(** The calling domain's live counter record, updated in place by the
    solver. One record per domain (domain-local storage), registered
    globally on first touch, so the hot path needs no atomics. *)
val local : unit -> counters

(** Fresh all-zero record. *)
val zero_counters : unit -> counters

(** Field-wise sum of every domain's counters (including domains that
    have since terminated). Call while worker domains are quiescent;
    concurrent mutation only makes the sums slightly stale. *)
val snapshot : unit -> counters

(** [diff after before] subtracts field-wise. *)
val diff : counters -> counters -> counters

val reset_counters : unit -> unit

(** Field names and values, for report/JSON emission. *)
val counters_to_fields : counters -> (string * int) list

(** {1 Global switch} *)

(** Memoization is on by default. [set_enabled false] also clears every
    table (so stale state cannot survive a later re-enable). *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Empty all registered tables (entries are pure, so this affects
    performance only). *)
val clear_all : unit -> unit

(** {1 Request epochs}

    Cached values embed fresh-minted wild names; when a server renumbers
    wilds per request ({!Presburger.Var.install_counter}), names collide
    across requests and a cross-request hit would return another
    request's variable identities. Entries are therefore salted with the
    writer's {e epoch}: a lookup from a different epoch is a miss (and
    removes the entry). The process default is epoch 0 — standalone
    tools never call {!set_epoch} and keep full cross-query reuse. *)

(** The calling domain's current epoch (0 unless a server set one). *)
val current_epoch : unit -> int

(** [set_epoch e] makes [e] the calling domain's epoch. The caller is
    responsible for restoring the previous value afterwards. *)
val set_epoch : int -> unit

(** {1 Bounded LRU tables}

    Classic doubly-linked-list LRU over [Hashtbl.Make]. Tables register
    themselves with {!clear_all} on creation. Capacity is a {e weight}
    budget: [add ~weight] (default 1) lets callers bound the retained
    {e size} of cached values — essential for elimination results, whose
    splinter lists can each retain hundreds of KB.

    Every domain owns a private shard (domain-local storage), so lookups
    and inserts take no locks; entries are pure functions of their keys,
    so per-domain caches affect hit rates only, never results. [clear]
    bumps a shared generation that each shard lazily syncs to on its
    owner's next access. *)
module Lru (K : Hashtbl.HashedType) : sig
  type 'v t

  (** [create cap]: [cap] is the maximum total weight. *)
  val create : int -> 'v t

  val find_opt : 'v t -> K.t -> 'v option

  (** Insert (no-op if present), evicting least-recently-used entries
      until the total weight fits; an entry heavier than the whole
      budget is not cached at all. *)
  val add : ?weight:int -> 'v t -> K.t -> 'v -> unit

  val clear : 'v t -> unit
  val length : 'v t -> int
end

(** {1 Exact clause keys} *)

module Ckey : sig
  (** An exact key: constraint lists sorted by the structural affine
      order, affines interned ({!Presburger.Affine.intern}) so equality
      on a hash match is pointer comparison, hash precomputed from the
      cached affine hashes. [salt] distinguishes caches sharing a key
      type (e.g. elimination modes); [vars] carries variable identity
      when it matters (wildcard sets, the eliminated variable). Used
      where the cached result mentions the clause's own variables. *)
  type t

  val equal : t -> t -> bool
  val hash : t -> int

  val make :
    ?salt:int ->
    ?vars:Presburger.Var.t list ->
    eqs:Presburger.Affine.t list ->
    geqs:Presburger.Affine.t list ->
    strides:(Zint.t * Presburger.Affine.t) list ->
    unit ->
    t

  (** Exact-structure key: constraints plus the clause's wildcard set (and
      any extra [vars]), unrenamed. *)
  val of_clause : ?salt:int -> ?vars:Presburger.Var.t list -> Clause.t -> t
end

(** {1 Canonical (rank-renamed) clause keys} *)

module Fkey : sig
  (** A canonical key for queries invariant under renaming some of the
      clause's variables: the chosen variables are abstracted to their
      rank (ascending variable order) directly on the coefficient
      structure, without building affines or clauses — cheap enough to
      compute at every level of the feasibility recursion. Clauses that
      differ only by an order-preserving renaming of the abstracted
      variables share a key; equal keys always denote clauses identical
      up to such a renaming, so sharing is sound. *)
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

(** Key for feasibility queries: every variable is existentially
    quantified, so all variables are rank-abstracted. *)
val feas_key : Clause.t -> Fkey.t

(** Key abstracting only the clause's wildcard names (used for the [given]
    side of [gist], which renames wildcards itself). *)
val wilds_canonical_key : Clause.t -> Fkey.t
