(** Deterministic fault injection for the resource governor.

    When enabled, every budget checkpoint of a {e governed} computation
    (one running under [Governor]/[Obs.Budget.with_ctrl]) may be turned
    into a simulated fuel exhaustion or deadline expiry — the failure
    modes the governor must degrade through. Ungoverned code is never
    touched: the hook is consulted only while a control block is active.

    Decisions are a pure hash of [(seed, event counter)], so a given
    seed replays the same fault schedule (fully deterministic for one
    governed query at a time; per interleaving when several domains run
    governed queries at once).

    Enable from the environment with [OMEGA_CHAOS=<seed>] (optional
    [OMEGA_CHAOS_RATE=<n>], default {!default_rate} — roughly one fault
    per [n] checkpoints), or programmatically with {!set} (tests). *)

(** Roughly one injected fault per this many checkpoints. *)
val default_rate : int

(** [install ()] registers the chaos hook with [Obs.Budget] and reads
    [OMEGA_CHAOS]/[OMEGA_CHAOS_RATE] — idempotent; called by [Governor]
    at load so any governed program honours the environment. *)
val install : unit -> unit

(** [set ?rate (Some seed)] enables injection with the given seed
    (overriding the environment); [set None] disables it. Resets the
    event counters so a seed's schedule restarts from the beginning. *)
val set : ?rate:int -> int option -> unit

val enabled : unit -> bool

(** Total faults injected since process start (also the
    [chaos.injections] metric). The test battery uses deltas of this to
    prove faults actually fired. *)
val injections : unit -> int
