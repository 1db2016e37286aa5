(** Certificate assembly — the [--certify] backend.

    Mirrors {!Telemetry}'s post-run card assembly: the answer is
    computed first (with the {!Cert} recorder armed around the
    computation, observational only), then {!build} turns the outcome
    plus the drained events into one certificate JSON object that
    [lib/certcheck] can replay with no access to this library.

    Schema [omegacount.cert.v1] (all integers as strings):
    {v
    { "schema": "omegacount.cert.v1",
      "fingerprint": "16 hex digits",
      "query": label, "vars": [names], "options": {...},
      "status": "complete" | "partial",  "reason": name (partial),
      "pieces": [ {"guard": CLAUSE, "value": POLY} ],   (sound lower for partial)
      "lower_sound": bool (partial),
      "upper_pieces": [PIECE] | null (partial),
      "refuted": [ {"site": s, "clause": CLAUSE, "witness": W} ],
      "refuted_dropped": n, "unwitnessed": n,
      "gf": [ {"vars": [..], "clause": CLAUSE, "count": str} ],
      "eval": [ {"at": [[name,int]..], "value": str} |
                {"at": .., "lower": str?, "upper": str?} ] }
    v} *)

(** Re-export of {!Cert.with_recording} so CLIs need no direct [cert]
    dependency. *)
val with_recording : (unit -> 'a) -> 'a * Cert.event list * int

(** {!Governor.outcome}: a certificate states what the governed run
    returned. *)
type outcome = Governor.outcome =
  | Complete of Value.t
  | Partial of Governor.partial

(** [build ~opts ~vars ~summand ~query ~ats ~outcome ~events ~dropped f]
    assembles the certificate. [ats] are evaluation environments; a
    point whose value the engine cannot evaluate (unbound constant) is
    skipped. Deterministic for a given outcome: refuted and gf entries
    are deduplicated and sorted. Increments [cert.emitted]. *)
val build :
  opts:Engine.options ->
  vars:string list ->
  summand:Qpoly.t ->
  query:string ->
  ats:(string * Zint.t) list list ->
  outcome:outcome ->
  events:Cert.event list ->
  dropped:int ->
  Presburger.Formula.t ->
  Obs.Ojson.t
