(** The omegad server core: a fault-isolated, long-running query
    service over a Unix-domain socket.

    {b Protocol} (JSONL — one request object per line, one response
    object per line, in no guaranteed order; match on the echoed
    [id]):
    {v
    → {"id":1,"query":"count { i : 1 <= i <= n }","at":{"n":10}}
    ← {"id":1,"status":"complete","value":"n","eval":10}
    v}
    Request fields: [op] (["count"] default, ["ping"], ["metrics"],
    ["shutdown"]), [query] (Preslang text), [at] (bindings object),
    [strategy], [backend], [merge], [certify], [deadline_ms], [fuel],
    [max_fanout], [max_clauses]; unknown fields (such as the retired
    [plan]) are ignored. Response [status] is
    ["complete"] / ["partial"] (bodies from {!Counting.Answer}, so
    bytes match [omcount --json]), ["shed"], ["error"] (with [class]:
    [parse_error] / [unbounded] / [omega_error] / [bad_request] /
    [unavailable] / [internal]), or ["ok"] for the inline verbs.

    {b Fault isolation}: each count request runs under its own
    {!Ctx.with_request} context and budget control block on a handler
    domain; any engine error, budget trip, or injected chaos fault
    degrades {e that request} to a typed body while the server keeps
    serving. SIGTERM/SIGINT (or the [shutdown] verb) stops admission,
    cancels in-flight requests (sound [Partial Cancelled] bodies), and
    drains cleanly.

    {b Scheduling}: one domain per core. Requests run in parallel
    across handler domains and serially on each, as the counting engine
    always runs.

    {b Framing}: each handler domain assembles a response in place in
    its own buffer — id, body fields, certificate — and writes it with
    one [write]; no whole-body string is built on the way. *)

type config = {
  socket_path : string;
  handlers : int;
      (** handler domains; one request processed per domain, serially
          (no clause or splinter fan-out), so [handlers] is the server's
          whole compute budget. Default: the core count. *)
  queue_limit : int;  (** admission bound; beyond it requests are shed *)
  cache_capacity : int;
      (** value-cache bound: the total piece count of the cached values,
          each weighing at least 1 (see {!Cache}) *)
  cache_ttl_s : float option;  (** value-cache TTL; [None] = no expiry *)
  idle_sweep_s : float option;
      (** idle seconds before a memo/cache sweep; [None] disables *)
}

val default_config : config

(** Longest request line accepted, in bytes (1 MiB). A connection that
    sends a longer line, or this many bytes without a newline, gets one
    [bad_request] response with a [null] id and is closed; other
    connections are unaffected. *)
val max_line_bytes : int

(** {1 Serving state without the socket} *)

(** A server's state: admission queue, value cache, drain flag. *)
type t

(** [create config] is a fresh state; {!run} serves one. *)
val create : config -> t

(** [answer_frame t b id req] writes into [b] (cleared first) the
    response frame for the count request [req] under [id], without its
    newline: exactly the bytes a handler domain writes, from the same
    code, value cache included. *)
val answer_frame : t -> Buffer.t -> Obs.Ojson.t -> Proto.query_req -> unit

(** [run ~config ()] binds the socket and serves until a stop signal or
    a [shutdown] request, then drains and removes the socket. Installs
    SIGTERM/SIGINT handlers, and puts the previous ones back when it
    returns or raises; ignores SIGPIPE. *)
val run : ?config:config -> unit -> unit
