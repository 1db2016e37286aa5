(** Canonical JSON answer bodies, shared by [omcount --json] and omegad.

    One renderer produces the body both front ends publish: omcount
    prints it as its whole stdout line; omegad embeds it in response
    frames and caches it {e as a string}, so a cache hit is
    byte-identical to the miss that filled it by construction. The
    bodies carry no volatile fields (no wall time, no ids) — two runs
    of the same query under per-request fresh-name counters render the
    same bytes. *)

(** [eval_num at v] evaluates [v] under the bindings when that yields a
    plain integer; [None] when symbolic constants remain unbound or the
    result is non-integral. *)
val eval_num : (string * Zint.t) list -> Value.t -> Zint.t option

(** [{"status":"complete","value":"…"(,"eval":n)?}] — [eval] present
    exactly when [eval_num] succeeds under [at]. *)
val complete_json : at:(string * Zint.t) list -> Value.t -> string

(** [{"status":"partial","reason":…,…,"bounds":{…}}] — the governed
    degradation body: reason, progress counts, pieces/lower/upper
    values, and numeric bounds where evaluable. *)
val partial_json : at:(string * Zint.t) list -> Governor.partial -> string
