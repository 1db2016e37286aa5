(** The symbolic summation engine (Section 4 of the paper).

    [sum ~vars f poly] computes [(Σ vars : f : poly)] — the sum of the
    quasi-polynomial [poly] over all integer assignments of [vars]
    satisfying the Presburger formula [f] — symbolically in the remaining
    free variables of [f] (the symbolic constants). [count] is the special
    case [poly = 1].

    Pipeline:
    + simplify [f] to {e disjoint} disjunctive normal form (Sections 2, 5),
      so per-clause results can simply be added (Section 4.5.1);
    + per clause, substitute away summation variables bound by equalities
      or strides (projected-clause handling, Section 4.5.2 — realized by
      scale-and-substitute rather than an explicit Smith decomposition, to
      which it is equivalent one variable at a time);
    + convex summation (Section 4.4): remove redundant constraints, pick a
      summation variable with flexible order, split multiple upper/lower
      bounds into disjoint cases, and reduce single-bounded variables with
      Faulhaber closed forms ({!Qpoly.range_sum});
    + rational bounds (Section 4.2.1) are handled per {!strategy}:
      splintering by residue class (exact), upper/lower approximation, or
      symbolic [mod]-atom answers;
    + emptiness guards ([lower ≤ upper]) are conjoined into the residual
      problem so empty ranges contribute zero — the introduction's
      Mathematica pitfall ([guard_empty = false] reproduces the pitfall
      for demonstration). *)

(** Strategy for rational (floor/ceiling) bounds — Section 4.2.1. *)
type strategy =
  | Exact  (** splinter into residue classes; exact answers *)
  | Upper
      (** upper bound on the result (for nonnegative summands): rational
          bound relaxation (4.2.1) {e and} real-shadow projection of
          quantified variables (4.6) *)
  | Lower
      (** lower bound: tightened rational bounds and dark-shadow
          projection (4.6) *)
  | Symbolic
      (** answers in terms of [n mod c] atoms when bounds involve only
          symbolic constants (falls back to [Exact] otherwise); the
          emptiness guard of such a piece is the real-shadow
          approximation, as Section 4.2.2 permits *)

(** Counting backend per disjoint clause. Every backend runs under the
    cost-model planner ({!Planner}: elimination order and heavy-first
    pool scheduling) with the bounded feasibility pre-filter
    ({!Omega.Prefilter}) armed; they differ only in which clauses go to
    the generating-function counter. Answers are byte-identical across
    backends, and plans are pure functions of each clause, hence
    identical at every [--jobs] level. *)
type backend =
  | Pugh
      (** the splintering summation engine for every clause — an
          oracle-forcing switch for differential tests *)
  | Gf
      (** the generating-function (Barvinok) backend of {!Gfcount} for
          every clause it applies to — Exact strategy, constant summand,
          fully concrete, within its dimension caps — with per-clause
          fallback to Pugh otherwise; the other oracle-forcing switch *)
  | Auto
      (** the planner's routing (default): gfcount for collapse-safe
          clauses whose predicted splinter fan-out is ≥ 2, Pugh
          otherwise *)

type options = {
  strategy : strategy;
  backend : backend;
  flexible_order : bool;
      (** [false] forces the fixed (innermost-first) elimination order of
          Tawbi's algorithm — the ablation of Example 1. *)
  eliminate_redundant : bool;
      (** [false] skips redundant-constraint elimination (second ablation
          of Section 7). *)
  guard_empty : bool;
      (** [false] omits the [lower ≤ upper] guards, reproducing the
          unguarded-summation pitfall of Section 1. *)
  disjoint : bool;
      (** [false] uses possibly-overlapping DNF — only meaningful for the
          FST91 inclusion–exclusion baseline, which corrects the overlap
          externally. *)
}

val default : options

(** Stable lowercase name of a strategy, used in reports and traces. *)
val strategy_name : strategy -> string

(** Stable lowercase name of a backend ([pugh] / [gf] / [auto]). *)
val backend_name : backend -> string

(** Options as labelled string fields ([strategy], [flexible_order], …),
    the [options] block of the self-describing JSON reports. *)
val opts_fields : options -> (string * string) list

(** Instrumentation for the comparisons of Section 6. *)
type stats = {
  mutable dnf_clauses : int;
  mutable bound_splits : int;  (** multiple-bound case splits (Sec 4.4) *)
  mutable residue_splinters : int;  (** rational-bound splinters (4.2.1) *)
  mutable pieces : int;  (** guarded pieces before final simplification *)
}

val new_stats : unit -> stats

(** Stats as labelled fields, for report/JSON emission. *)
val stats_fields : stats -> (string * int) list

(** Raised when the summation region is unbounded in some variable. *)
exception Unbounded of string

(** [sum ?opts ?stats ~vars f poly]: see above. Variables are given by
    name; every other free variable of [f] is a symbolic constant. *)
val sum :
  ?opts:options ->
  ?stats:stats ->
  vars:string list ->
  Presburger.Formula.t ->
  Qpoly.t ->
  Value.t

(** [count ?opts ?stats ~vars f = sum ~vars f 1]. *)
val count :
  ?opts:options ->
  ?stats:stats ->
  vars:string list ->
  Presburger.Formula.t ->
  Value.t

(** [sum_clauses] runs the per-clause engine on an explicit clause list
    (used by the FST91 baseline and by callers that already have DNF):
    {!clause_sums}, then the first failure in clause order re-raised
    with its original backtrace, then {!simplify_clauses}. *)
val sum_clauses :
  ?opts:options ->
  ?stats:stats ->
  vars:string list ->
  Omega.Clause.t list ->
  Qpoly.t ->
  Value.t

(** [to_clauses ?opts f] is the strategy-dependent DNF phase of {!sum}:
    disjoint DNF for [Exact]/[Symbolic] (plain DNF when
    [opts.disjoint = false]), real-shadow projection for [Upper],
    dark-shadow for [Lower]. Runs under the ["dnf"] phase timer. *)
val to_clauses : ?opts:options -> Presburger.Formula.t -> Omega.Clause.t list

(** [clause_sums] is the engine's one clause fan-out: every clause is
    planned once (the plan gives both its routing and its heavy-first
    spawn weight) and summed as its own pool task, under a ["clause"]
    span that feeds the [engine.clause_us] histogram. Outcomes come back
    in clause order, unmerged: [Ok v] is the clause's raw piece list,
    [Error (exn, backtrace)] a clause that raised — budget exhaustion
    included, so [Counting.Governor] can assemble a partial answer from
    the clauses that completed. Runs under the ["sum"] phase timer. *)
val clause_sums :
  ?opts:options ->
  ?stats:stats ->
  vars:string list ->
  Omega.Clause.t list ->
  Qpoly.t ->
  (Value.t, exn * Printexc.raw_backtrace) result list

(** [simplify_clauses vals] concatenates per-clause piece lists in
    order and simplifies them under the ["simplify"] phase timer — the
    step that turns {!clause_sums} into the answer {!sum} returns. *)
val simplify_clauses : Value.t list -> Value.t

(** [route_clause ?opts ~vars poly c] is the backend the per-clause
    dispatch would choose for [c]: ["gf"] when the backend (for [Auto],
    the planner) routes it to the generating-function backend, ["pugh"]
    otherwise. A pure function of the clause — the
    telemetry report card recomputes routing after the answer run
    instead of instrumenting the dispatch itself. *)
val route_clause :
  ?opts:options -> vars:string list -> Qpoly.t -> Omega.Clause.t -> string

(** [with_instr ?label ?meta f] runs [f] under instrumentation: phase
    timers are reset, engine counters are collected from every
    [sum]/[count] call inside [f] that does not pass its own [?stats],
    and the memo hit/miss and metrics-registry deltas are captured.
    [meta] (e.g. [opts_fields opts]) is recorded verbatim as the report's
    [options], making emitted JSON self-describing. Returns [f]'s result
    with the {!Instr.report}. Not reentrant within one domain (the
    ambient stats cell is domain-local; pool tasks spawned by [f] carry
    their own stats records and are absorbed by the engine). *)
val with_instr :
  ?label:string ->
  ?meta:(string * string) list ->
  (unit -> 'a) ->
  'a * Instr.report

(** [fresh_sum_var ()] mints a fresh name for stride substitution from a
    global {e atomic} counter, so concurrent domains never receive the
    same name. Names are zero-padded (["%w000042"]) so their
    lexicographic order equals creation order regardless of where the
    counter stands — part of the parallel-equals-serial output
    guarantee. *)
val fresh_sum_var : unit -> Presburger.Var.t

(** [reset_fresh_sum_var] rewinds the counter so a repeated computation
    produces syntactically identical results (tests; see also
    {!Presburger.Var.reset_fresh}). *)
val reset_fresh_sum_var : unit -> unit

(** The calling domain's installed sum-var counter cell, and its
    replacement — the per-request analogue of
    {!Presburger.Var.current_counter} / {!Presburger.Var.install_counter}.
    A server installs a fresh cell per request (and restores the old
    one after) so every request numbers sum vars from [%w000001];
    standalone tools never touch these and keep the process-global
    default cell. *)
val current_sum_var_counter : unit -> int Atomic.t

val install_sum_var_counter : int Atomic.t -> unit

(** Brute-force reference: sum [poly] over assignments of [vars] in the
    box [[lo, hi]]^k satisfying [f] under [env] — the test oracle. *)
val brute_sum :
  vars:string list ->
  lo:int ->
  hi:int ->
  (string -> Zint.t) ->
  Presburger.Formula.t ->
  Qpoly.t ->
  Qnum.t
