(** Hierarchical tracing: nested spans with structured attributes, kept in
    a bounded ring buffer, exportable as Chrome trace-event JSON (loadable
    in Perfetto / [chrome://tracing]) or as a self-time-sorted tree
    profile.

    Tracing is {e off} by default. When disabled, {!span} and {!instant}
    cost a single mutable-flag check and allocate nothing; hot call sites
    that build attribute closures should additionally guard on {!enabled}
    so the closure itself is never constructed. When enabled, every span
    records a begin/end event pair ([B]/[E] in Chrome phase terms) and
    instants record a single [i] event; the ring buffer overwrites the
    oldest events past {!capacity}, and the exporters repair the pairing
    (orphaned [E]s whose [B] was overwritten are dropped, still-open [B]s
    are closed at the last timestamp), so exported traces are always
    well-nested.

    Every domain records into a private ring buffer (domain-local
    storage), so recording never synchronizes; rings are retained after
    their domain dies, and the exporters merge them — pairing is
    repaired per ring, and each ring becomes a distinct Chrome thread
    ([tid]) in the merged trace.

    The module also hosts the always-on {e phase} aggregation that
    [Counting.Instr.time_phase] is built on: a phase is a span that
    additionally accumulates (seconds, entries) into a per-domain table,
    whether or not tracing is enabled; {!phase_totals} sums across
    domains. *)

(** {1 Attributes} *)

type value = Int of int | Float of float | Str of string | Bool of bool

type attr = string * value

(** {1 Global switch and ring buffer} *)

val enabled : unit -> bool

(** Enabling starts recording into the ring buffer; disabling stops
    recording but keeps already-recorded events (so a post-mortem dump
    after [set_enabled false] still sees the run). *)
val set_enabled : bool -> unit

(** Ring capacity in events (default 65536, or [OMEGA_TRACE_CAP] from the
    environment). Setting it clears the buffer. At least 16. *)
val set_capacity : int -> unit

val capacity : unit -> int

(** Drop all recorded events (in every domain's ring: remote rings reset
    themselves lazily on their owner's next access). *)
val clear : unit -> unit

(** Events overwritten by the rings since the last {!clear}. *)
val dropped : unit -> int

(** {1 Recording} *)

(** [span ?attrs name f] runs [f] inside a named span. [attrs] is only
    evaluated when tracing is enabled, at span entry. The end event is
    always recorded if the begin event was, even if [f] raises. *)
val span : ?attrs:(unit -> attr list) -> string -> (unit -> 'a) -> 'a

(** A zero-duration event (Chrome phase [i]). *)
val instant : ?attrs:(unit -> attr list) -> string -> unit

(** Attach an attribute to the innermost open span; it is emitted on the
    span's end event (Chrome viewers merge begin/end args). No-op when
    tracing is disabled or no span is open. *)
val add_attr : string -> value -> unit

(** {1 Always-on phase aggregation} *)

(** [phase name f]: a {!span} that additionally accumulates [f]'s wall
    time and an entry count under [name] in a global table, even when
    tracing is disabled. Re-entrant: nesting the same phase counts every
    entry but accumulates wall time only for the outermost level (a depth
    counter), so recursive phases do not double-count. *)
val phase : string -> (unit -> 'a) -> 'a

(** Accumulated [(name, (seconds, entries))], sorted by name. An
    still-open phase contributes its completed outermost intervals
    only. *)
val phase_totals : unit -> (string * (float * int)) list

val reset_phases : unit -> unit

(** {1 Inspection and export} *)

type event = {
  ph : char;  (** ['B'] begin, ['E'] end, ['i'] instant *)
  name : string;
  ts_us : float;  (** microseconds since process start *)
  attrs : attr list;
}

(** Recorded events, ring by ring (oldest-registered domain first), each
    ring oldest first, as stored (pairing not repaired). *)
val events : unit -> event list

(** Events with pairing repaired per ring: orphaned ['E']s dropped,
    unclosed ['B']s closed at the ring's final timestamp, rings
    concatenated. Always properly nested. *)
val paired_events : unit -> event list

(** The whole buffer as one Chrome trace-event JSON object:
    [{"traceEvents":[...],"displayTimeUnit":"ms",...}]. *)
val to_chrome_json : unit -> string

val write_chrome : out_channel -> unit

(** Self-time-sorted span tree: per path, total and self microseconds and
    a hit count; siblings sorted by self time, descending. *)
val pp_profile : Format.formatter -> unit -> unit

(** An attribute value as JSON, shared with {!Log}: floats print
    ["%.6g"], and a non-finite float is quoted (["\"inf\""]). *)
val value_json : value -> Ojson.t
