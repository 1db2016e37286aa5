(** A process-global metrics registry: monotonic counters and fixed-bucket
    histograms, cheap enough to leave permanently enabled (an increment is
    an atomic fetch-and-add; no clock, no allocation). All cells are
    atomics, so increments from concurrent domains are never lost.

    Metrics are registered once at module initialization ([counter] /
    [histogram] return the existing metric when the name is taken) and
    accumulate for the life of the process. Measured runs take a
    {!snapshot} before and after and report the {!diff}, exactly like the
    memo counters — this is what [Counting.Instr.collect] does, so
    [omcount --stats] and the benchmark JSON lines carry per-run
    distribution data. *)

type t

(** [counter name] registers (or retrieves) a monotonic counter.
    @raise Invalid_argument if [name] is registered as another kind. *)
val counter : string -> t

(** [gauge name] registers (or retrieves) a gauge: an instantaneous
    level (queue depth, cache residency) that can go up and down.
    @raise Invalid_argument if [name] is registered as another kind. *)
val gauge : string -> t

(** [histogram name ~buckets] registers (or retrieves) a fixed-bucket
    histogram. [buckets] are ascending inclusive upper bounds; an implicit
    overflow bucket catches everything above the last bound.
    @raise Invalid_argument on empty or non-ascending [buckets], or if
    [name] is registered as a counter or with different buckets. *)
val histogram : string -> buckets:int array -> t

val incr : ?by:int -> t -> unit

(** [set g v] stores level [v] in gauge [g]. *)
val set : t -> int -> unit

(** [add g by] moves gauge [g] by [by] (negative to decrease). *)
val add : t -> int -> unit

(** [observe h v] adds [v] to histogram [h]: bumps the first bucket whose
    bound is [>= v] (or the overflow bucket) and accumulates count and
    sum. Does not allocate. *)
val observe : t -> int -> unit

(** {1 Snapshots} *)

type sample =
  | Count of int
  | Level of int  (** gauge value; carried through [diff] unchanged *)
  | Hist of { bounds : int array; counts : int array; count : int; sum : int }

(** One sample as JSON: a counter or gauge is its integer; a histogram
    is [{"buckets":[…],"counts":[…],"count":n,"sum":s}]. *)
val sample_json : sample -> Ojson.t

(** All registered metrics with their current values, sorted by name. *)
val snapshot : unit -> (string * sample) list

(** [diff after before] subtracts field-wise; metrics registered only in
    [after] are kept as-is. *)
val diff :
  (string * sample) list -> (string * sample) list -> (string * sample) list

(** Zero every registered metric (registration is kept). *)
val reset : unit -> unit
