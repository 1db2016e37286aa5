(** The flight recorder: a small, always-on, process-global bounded ring
    of notable events — plan decisions, governor trips, chaos
    injections. Unlike {!Trace} (opt-in, hot-path,
    per-domain) this ring is for {e rare} events and is meant to be read
    after something went wrong: a post-mortem bundle
    ([Counting.Telemetry.write_postmortem]) dumps its tail alongside the
    trace tail and a metrics snapshot.

    [note] takes a global mutex — callers are cold paths (a trip, an
    injection, a worker spawn), never the per-node solver hot path, so
    contention is irrelevant and the alloc-guard tests stay unaffected
    (nothing on the measured path notes). *)

type event = {
  ts : float;  (** seconds since process start *)
  name : string;
  attrs : (string * string) list;
}

val capacity : int

(** [note name attrs] appends one event, overwriting the oldest past
    {!capacity}. *)
val note : string -> (string * string) list -> unit

(** Recorded events, oldest first. *)
val recent : unit -> event list

(** Events overwritten since the last {!clear}. *)
val dropped : unit -> int

val clear : unit -> unit

(** One event as a JSON object ([{"ts":…,"name":…,"attrs":{…}}]). *)
val to_ojson : event -> Ojson.t
