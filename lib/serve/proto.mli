(** omegad wire protocol: request parsing and response-body rendering.

    Requests and responses are single-line JSON objects (JSONL). The
    request [id] is echoed verbatim (any JSON value, default [null]);
    answer bodies come from {!Counting.Answer}, so the payload schema
    is exactly [omcount --json]'s. *)

type query_req = {
  query : string;  (** Preslang text, e.g. ["count { i : 1 <= i <= n }"] *)
  at : (string * Zint.t) list;  (** sorted by name at parse time *)
  strategy : Counting.Engine.strategy;
  backend : Counting.Engine.backend;
  merge : bool;
  budget : Counting.Governor.budget;
  certify : bool;
}

type op = Count of query_req | Ping | Metrics | Shutdown

type request = { id : Obs.Ojson.t; op : op }

(** Parse one request line. [Error (id, msg)] carries the echoed id
    (when one could be recovered) for the [bad_request] response. *)
val parse : string -> (request, Obs.Ojson.t * string) result

(** Engine options implied by a request (strategy/backend over
    {!Counting.Engine.default}). *)
val opts_of : query_req -> Counting.Engine.options

(** [with_id id body] stitches the echoed [id] as the first field of a
    rendered body object — bodies are rendered id-free, so one renderer
    serves every request. *)
val with_id : Obs.Ojson.t -> string -> string

val error_body : cls:string -> msg:string -> string

val shed_body : depth:int -> limit:int -> string

val pong_body : string

val shutdown_body : string

(** Metrics response: the OpenMetrics text document as a JSON string
    field. *)
val metrics_body : string -> string
