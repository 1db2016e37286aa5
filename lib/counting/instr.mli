(** Instrumentation for the counting pipeline: named phase timers (built
    on {!Obs.Trace} spans, so they also appear in exported traces), memo
    hit/miss counters, metrics-registry snapshots, and structured run
    reports (human-readable and single-line JSON, the format the
    benchmark driver emits).

    The phase table is global; {!collect} (and its wrapper
    [Engine.with_instr]) resets it around a measured run. Memo tables are
    {e not} cleared — a measured run keeps whatever warm-up preceded it;
    use [Omega.Memo.clear_all] first for cold-cache numbers. *)

(** [time_phase name f] runs [f], accumulating its wall time and entry
    count under [name]. Alias of {!Obs.Trace.phase}: re-entrant — nesting
    the same phase counts every entry but accumulates wall time only for
    the outermost level, so recursive phases do not double-count — and,
    when tracing is enabled, each entry also records a span in the trace
    ring buffer. *)
val time_phase : string -> (unit -> 'a) -> 'a

val reset_phases : unit -> unit

(** Accumulated [(name, (seconds, entries))], sorted by name. *)
val phase_fields : unit -> (string * (float * int)) list

type report = {
  label : string;
  wall_s : float;
  phases : (string * (float * int)) list;
  memo : Omega.Memo.counters;  (** deltas over the measured run *)
  counts : (string * int) list;  (** extra counters, e.g. engine stats *)
  metrics : (string * Obs.Metrics.sample) list;
      (** metrics-registry deltas (counters and histograms) *)
  options : (string * string) list;
      (** run configuration (strategy, flags), for self-describing JSON *)
  minor_words : float;  (** words allocated on the minor heap *)
  promoted_words : float;  (** words promoted minor → major *)
  major_words : float;  (** words allocated directly on the major heap *)
}

(** [collect ?label ?options ?counts f] measures [f]: fresh phase table,
    memo counter and metrics-registry deltas, wall time, and
    [Gc.quick_stat] allocation deltas; [counts] is sampled after [f]
    returns and [options] is recorded verbatim. Not reentrant. *)
val collect :
  ?label:string ->
  ?options:(string * string) list ->
  ?counts:(unit -> (string * int) list) ->
  (unit -> 'a) ->
  'a * report

(** One-line JSON object:
    [{"label":…,"wall_s":…,"options":{…},"phases":{…},"memo":{…},"gc":{…},
      "engine":{…},"metrics":{…}}] — [options], [engine] and [metrics]
    are omitted when empty; all pre-existing fields are unchanged. *)
val to_ojson : report -> Obs.Ojson.t

(** [Obs.Ojson.render (to_ojson r)]. *)
val to_json : report -> string

val pp : Format.formatter -> report -> unit
