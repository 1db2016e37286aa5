(** Canonical JSON answer bodies, shared by [omcount --json] and omegad.

    One renderer produces the body both front ends publish: omcount
    prints it as its whole stdout line; omegad embeds it in response
    frames. A complete body is an [at]-free prefix followed by the
    evaluation, and omegad caches a value with its prefix, so a cache
    hit at any binding finishes the body with {!add_eval}
    exactly as a cold run does. The bodies carry no volatile fields (no
    wall time, no ids) — two runs of the same query under per-request
    fresh-name counters render the same bytes. *)

(** [eval_num at v] evaluates [v] under the bindings when that yields a
    plain integer; [None] when symbolic constants remain unbound or the
    result is non-integral. *)
val eval_num : (string * Zint.t) list -> Value.t -> Zint.t option

(** [{"status":"complete","value":"…"(,"eval":n)?}] — [eval] present
    exactly when [eval_num] succeeds under [at]. *)
val complete_json : at:(string * Zint.t) list -> Value.t -> string

(** [complete_prefix v] is [complete_json]'s body for [v] up to, not
    including, its [eval] field and closing brace: the part that does
    not depend on the bindings. *)
val complete_prefix : Value.t -> string

(** [add_eval b ~at v] appends the [,"eval":n] field when [eval_num at
    v] is [Some n], and nothing otherwise. [complete_json ~at v] is
    [complete_prefix v], then [add_eval], then the closing brace. *)
val add_eval : Buffer.t -> at:(string * Zint.t) list -> Value.t -> unit

(** [{"status":"partial","reason":…,…,"bounds":{…}}] — the governed
    degradation body: reason, progress counts, pieces/lower/upper
    values, and numeric bounds where evaluable. *)
val partial_json : at:(string * Zint.t) list -> Governor.partial -> string
