(** Ambient resource budget: cooperative cancellation for the solver and
    counting stacks.

    Omega-style simplification is worst-case super-exponential, so a
    production engine must be able to stop a runaway query without
    killing the process. This module is the low-level mechanism: a
    process-global {e control block} carrying a wall-clock deadline, a
    step-fuel counter, fan-out/clause caps, and a cancel token. The
    solver and engine call {!charge} / {!check_fanout} / {!check_clauses}
    at the points where work is created (one fuel unit per elimination
    query, engine reduction step, feasibility probe, …); when any limit
    trips, the first reason is recorded, the cancel token is set so
    every later checkpoint re-raises it, and {!Exhausted} is raised.

    When no control block is installed — the default — every check is a
    single [Atomic.get] and nothing can be raised, so ungoverned runs
    behave exactly as before.

    This lives in [Obs] (below [Omega] and [Counting]) so the solver
    layer can observe budgets without depending on the counting layer.
    The user-facing budget API is [Counting.Governor]. *)

(** Why a computation was stopped. *)
type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Fuel  (** the step-fuel allowance ran out *)
  | Fanout  (** a single splinter would exceed the fan-out cap *)
  | Clauses  (** a DNF expansion exceeded the live-clause cap *)
  | Cancelled  (** cancelled explicitly by the caller *)

val reason_name : reason -> string

(** Raised by the checking functions when the active budget trips (and
    by every subsequent check until the control block is uninstalled, so
    in-flight work unwinds promptly). *)
exception Exhausted of reason

(** A control block. Create with {!make}, activate with {!with_ctrl}. *)
type ctrl

(** [make ()] with no limits never trips on its own (but still observes
    {!cancel} and the chaos hooks — installing an unlimited control
    block is how chaos testing exercises ungoverned-shaped runs).
    [deadline_s] is relative seconds from now; [fuel] a total step
    allowance; [max_fanout] caps a single splinter's branch count;
    [max_clauses] caps any DNF clause list. *)
val make :
  ?deadline_s:float ->
  ?fuel:int ->
  ?max_fanout:int ->
  ?max_clauses:int ->
  unit ->
  ctrl

(** [with_ctrl c f] installs [c] as the calling domain's control block,
    runs [f], and uninstalls it (also on exception). Only one control
    block is active per domain at a time; nesting installs are a
    programming error (each domain runs one governed query at a time,
    like [Engine.with_instr]), and the engine runs it serially there, so
    concurrent requests on separate domains charge separate budgets. The
    [budget.fuel_used] counter is credited on uninstall. *)
val with_ctrl : ctrl -> (unit -> 'a) -> 'a

(** The calling domain's installed control block, if any. *)
val active : unit -> ctrl option

(** [cancel c] requests cancellation: the domain running [c] raises
    [Exhausted Cancelled] at its next checkpoint. Idempotent; safe from
    any domain. *)
val cancel : ctrl -> unit

(** The first reason [c] tripped, if it has. *)
val tripped : ctrl -> reason option

(** [fuel_used c] is the fuel charged against [c] so far (0 when [c] has
    no fuel limit). *)
val fuel_used : ctrl -> int

(** [charge n] spends [n] fuel units and polls the deadline, the cancel
    token, and the chaos hook. No-op (one atomic read) when no control
    block is installed. Raises {!Exhausted} when the budget trips or has
    already tripped. *)
val charge : int -> unit

(** [check_fanout n] trips with {!Fanout} when a splinter about to
    create [n] branches exceeds the cap. *)
val check_fanout : int -> unit

(** [check_clauses n] trips with {!Clauses} when a clause list of length
    [n] exceeds the cap. *)
val check_clauses : int -> unit

(** {1 Chaos hooks}

    The fault-injection harness ([Counting.Chaos]) installs these; they
    are only consulted while a control block is active, so ungoverned
    code never pays for (or suffers) injection. The checkpoint hook may
    return a reason to trip the active budget. *)

val set_chaos_hook : (unit -> reason option) option -> unit
