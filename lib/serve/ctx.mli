(** Per-request execution contexts for omegad.

    A request handled on one domain must not observe another request's
    state: fresh-name counters (wildcards, sum vars), the solver memo
    (whose values embed minted wildcard names), telemetry context, and
    the budget control block are all per-request. {!with_request}
    installs fresh instances of each on the calling domain, where the
    request runs serially, and restores the previous ones on exit, so repeated identical requests
    produce byte-identical answers, certificates, and fingerprints no
    matter what ran in between.

    Memo isolation is by {e epoch}: each request gets a fresh
    [Omega.Memo] epoch, so entries written by other requests (or by
    process-wide warm-up at epoch 0) are misses. *)

(** [with_request ?context f] runs [f] under a fresh request context
    (fresh wildcard counter, fresh sum-var counter, fresh memo epoch,
    telemetry ambient [context]) and restores the previous context on
    return or exception. *)
val with_request : ?context:(string * string) list -> (unit -> 'a) -> 'a

(** [with_ctrl_registered c f] runs [f] with [c] registered in the
    in-flight table, so a server shutdown can {!cancel_inflight} it;
    unregisters on return or exception. *)
val with_ctrl_registered : Obs.Budget.ctrl -> (unit -> 'a) -> 'a

(** Cancel every registered in-flight control block (each request then
    degrades to a sound [Partial Cancelled] at its next checkpoint).
    Returns how many were cancelled. Safe from any domain / signal
    context. *)
val cancel_inflight : unit -> int

(** A fresh, process-unique memo epoch (used by {!with_request};
    exposed for tests). *)
val fresh_epoch : unit -> int
