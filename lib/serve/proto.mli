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

(** {1 Response frames}

    A response frame is assembled in place in a [Buffer.t]:
    {!open_frame}, then the body's fields ({!add_body}, or
    {!add_prefix} and {!Counting.Answer.add_eval}, then any
    {!add_certificate}), then {!close_frame}. Bodies are rendered
    id-free, so one rendering (a cached prefix) serves every request. *)

(** [open_frame b id] clears [b] and writes [{"id":id]. *)
val open_frame : Buffer.t -> Obs.Ojson.t -> unit

(** [add_body b body] appends the fields of the rendered object [body]
    (each after a comma; nothing for [{}]), not its closing brace. *)
val add_body : Buffer.t -> string -> unit

(** [add_prefix b prefix] appends the fields of an object prefix with
    no closing brace, such as {!Counting.Answer.complete_prefix}'s. *)
val add_prefix : Buffer.t -> string -> unit

(** [add_certificate b cert] appends [,"certificate":cert]. *)
val add_certificate : Buffer.t -> Obs.Ojson.t -> unit

(** [close_frame b] appends the closing brace. *)
val close_frame : Buffer.t -> unit

(** [with_id id body] is the frame of [body] under [id] as a string. *)
val with_id : Obs.Ojson.t -> string -> string

val error_body : cls:string -> msg:string -> string

val shed_body : depth:int -> limit:int -> string

val pong_body : string

val shutdown_body : string

(** Metrics response: the OpenMetrics text document as a JSON string
    field. *)
val metrics_body : string -> string
