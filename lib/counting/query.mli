(** One governed query, end to end: the path [omcount], omegad and the
    bench's certify pass share.

    Pugh's answer is a sum over the clauses of a disjoint DNF, each
    summed on its own and then merged, so a query has one fan-out point
    ({!Engine.clause_sums}, reached through {!Governor.sum}) and
    everything after it is the same for every front end: residue merge,
    certificate and report card. Front ends keep only their own
    concerns — flag parsing and printing, or admission, caching and
    framing — so [omcount] and omegad publish the same bytes for the
    same request by construction.

    Every query is governed. With an unlimited budget the outcome is
    [Complete v] with [v] byte-identical to [Engine.sum]'s answer. *)

type result = {
  outcome : Governor.outcome;  (** residue-merged when [~merge] *)
  certificate : Obs.Ojson.t option;  (** present exactly when [~certify] *)
  report : Instr.report option;  (** present exactly when [~instr] *)
}

(** [run ~label ~opts ~budget ?ctrl ~merge ~certify ~instr ?evals ~at
    ~source ~vars ~summand f] answers [f] summed over [vars]:

    - runs {!Governor.sum} under [budget] (or the installed [ctrl]),
      with the certificate recorder armed when [~certify], and under
      [Engine.with_instr ~label] when [~instr];
    - merges residue classes of the value, or of a partial's pieces and
      bounds, when [~merge];
    - builds the certificate: query [source], evaluated at [at] sorted
      by name (no point when [at] is empty), or at [evals] when given;
    - records the report card (with a minimal report — label, wall
      time, options — when [~instr] is false) and flushes any pending
      post-mortem bundle.

    A failure ([Engine.Unbounded], [Omega.Error.Omega_error], anything
    else) records a [Failed] card — class ["unbounded"],
    ["omega_error"] or ["internal"]; the latter two also log an error
    and write a post-mortem bundle — and is re-raised with its
    backtrace. *)
val run :
  label:string ->
  opts:Engine.options ->
  budget:Governor.budget ->
  ?ctrl:Obs.Budget.ctrl ->
  merge:bool ->
  certify:bool ->
  instr:bool ->
  ?evals:(string * Zint.t) list list ->
  at:(string * Zint.t) list ->
  source:string ->
  vars:string list ->
  summand:Qpoly.t ->
  Presburger.Formula.t ->
  result
