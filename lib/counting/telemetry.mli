(** Per-query report cards and post-mortem bundles.

    A report card is one self-describing JSON line per query: a
    canonical formula {!fingerprint} (a join key only — also printed by
    [omcount --stats], stamped into bench lines and certificates, so
    cards, bench JSON, and [--explain-plan] output join on it; being a
    bounded 62-bit hash, two different queries can share it, so nothing
    keys answers on it), the per-clause plan/backend routing, memo and pre-filter hit
    rates, budget spend, phase self-times and the full {!Instr.report},
    and the {!outcome}. Cards are assembled {e after} the answer run
    from pure re-computations ({!Engine.route_clause},
    {!Planner.plan_clause}) and already-collected deltas, so enabling
    telemetry never changes answers — the byte-identity battery holds
    at every jobs level, and disabled telemetry costs nothing (the
    alloc-guard test covers the E6 run).

    Post-mortem bundles dump the flight-recorder tail ({!Obs.Flight}),
    the trace tail, a metrics snapshot, and the query's card (or its
    ambient context when the card is not assembled yet) into
    [OMEGA_POSTMORTEM_DIR] when something goes wrong: a governor trip
    ({!Governor.sum} requests a bundle on every [Partial]), an
    [Omega_error] (the CLI writes one from its handler), or a chaos
    fault (which always surfaces as one of the former). With the
    directory unset, every entry point is a no-op. *)

type outcome =
  | Complete
  | Partial of string  (** budget-trip reason name *)
  | Failed of string  (** error class, e.g. ["omega_error"] *)

type clause_info = {
  index : int;
  rows : int;  (** constraint count ({!Omega.Clause.size}) *)
  backend : string;  (** ["gf"] / ["pugh"], per {!Engine.route_clause} *)
  predicted_fanout : int;
  order : string list;  (** planner elimination order (cost-model view) *)
  weight : int;  (** planner scheduling weight *)
}

type card = {
  fingerprint : string;
  query : string;  (** the report label *)
  vars : string list;
  outcome : outcome;
  clauses : clause_info list;
  clauses_total : int;
      (** [clauses] is capped at {!clause_cap} entries; this is the real
          count so truncation is never silent *)
  report : Instr.report;
}

(** Clause-summary entries kept per card. *)
val clause_cap : int

(** [fingerprint ~vars ~summand f]: a deterministic structural hash of
    the whole query (bound variables, summand, formula) rendered as 16
    hex digits. Stable across runs and jobs levels for source-named
    formulas (wildcard names minted during solving never appear in the
    input formula). *)
val fingerprint :
  vars:string list -> summand:Qpoly.t -> Presburger.Formula.t -> string

(** Per-clause plan summary over an explicit clause list (pure). *)
val clause_infos :
  opts:Engine.options ->
  vars:string list ->
  summand:Qpoly.t ->
  Omega.Clause.t list ->
  clause_info list

(** [build ~opts ~vars ~summand ~outcome ~report f] assembles a card,
    re-running the DNF split ([Engine.to_clauses]) for the plan summary;
    a failure there (it can trip a still-armed budget, or the formula
    may be the one that just errored) degrades to an empty clause list
    rather than masking the outcome. *)
val build :
  ?label:string ->
  opts:Engine.options ->
  vars:string list ->
  summand:Qpoly.t ->
  outcome:outcome ->
  report:Instr.report ->
  Presburger.Formula.t ->
  card

(** One JSON line (no trailing newline), schema
    [omegacount.card.v1]. *)
val to_json : card -> string

(** {1 Emission} *)

(** Telemetry sink: a JSONL path from [omcount --telemetry] /
    [OMEGA_TELEMETRY] (the environment variable is read at startup).
    The file is opened in append mode on the first {!record}. *)
val set_file : string option -> unit

val enabled : unit -> bool

(** Append one card to the sink (no-op when disabled). *)
val record : card -> unit

(** Close the sink channel, if open (the CLI's at-exit hook). *)
val close : unit -> unit

(** {1 Ambient query context}

    Set by the CLI / bench around each query so a bundle written
    mid-query (before the card exists) still carries the join key. *)

val set_context : (string * string) list -> unit
val clear_context : unit -> unit

(** {1 Post-mortem bundles} *)

val set_postmortem_dir : string option -> unit
val postmortem_dir : unit -> string option

(** Write a bundle now ([postmortem-<pid>-<n>.json]), schema
    [omegacount.postmortem.v1]. No-op without a directory. *)
val write_postmortem : trigger:string -> ?card:card -> unit -> unit

(** Defer a bundle until {!flush_postmortem} supplies the finished card
    (or until exit, whichever first). A second request before the flush
    keeps the first trigger. *)
val request_postmortem : trigger:string -> unit

val pending_postmortem : unit -> string option

(** Write the requested bundle, if any. *)
val flush_postmortem : ?card:card -> unit -> unit
