(** omegad's answer cache: one symbolic value serves every binding.

    A counting answer is a guarded quasi-polynomial in the symbolic
    constants, so omegad stores the {e value} a complete run produced,
    with its rendered [at]-free body prefix
    ({!Counting.Answer.complete_prefix}), under {!value_key}: the exact
    query text, the option fields and the merge flag. There is no
    fingerprint, binding or certify flag in the key, so two different
    queries never share an entry and every binding of one query does.
    A hit evaluates the value at the request's own bindings through
    {!Counting.Answer.add_eval}, the code a cold run renders with, so
    the body is byte-identical to a cold run's. Only
    [status:"complete"] values are stored (partials depend on the budget
    that tripped).

    The cache is polymorphic in its entries (omegad stores a value and
    its prefix) and bounded by total {e weight}: each entry weighs
    [max 1 (weight e)], [capacity] bounds the sum, least recently used
    entries are evicted first, and an entry heavier than [capacity] is
    not stored at all (it evicts nothing). It is shared across handler
    domains (mutex-guarded LRU with optional TTL), because hits must be
    visible whichever domain picks the repeat up.

    Maintains [serve.cache_hits] / [serve.cache_misses] /
    [serve.cache_evictions] (counters) and [serve.cache_entries] /
    [serve.cache_weight] (gauges). *)

type 'a t

(** [create ~capacity ?ttl_s ?weight ()] — [weight] defaults to 1 per
    entry, making [capacity] an entry count. *)
val create :
  capacity:int -> ?ttl_s:float -> ?weight:('a -> int) -> unit -> 'a t

(** LRU-promoting lookup; counts a hit or a miss. An expired entry is a
    miss (and is reclaimed). *)
val find : 'a t -> string -> 'a option

(** Insert (replacing any entry under the same key), then evict from
    the LRU tail until the total weight is within capacity. An entry
    heavier than the capacity is dropped and the cache left as it
    was. *)
val add : 'a t -> string -> 'a -> unit

(** Drop every expired entry (idle-sweep duty); returns how many. *)
val purge_expired : 'a t -> int

val clear : 'a t -> unit

val length : 'a t -> int

(** Total weight of the stored entries (at most the capacity). *)
val weight : 'a t -> int

(** [value_key ~query ~opts ~merge] — omegad's key: the option fields,
    the merge flag and the exact query text, in an injective layout.
    The certify flag is not part of it: a certified run fills the same
    entry a plain one does. *)
val value_key :
  query:string -> opts:Counting.Engine.options -> merge:bool -> string

(** [key ~fingerprint ~opts ~merge ~certify ~at] — the fingerprint,
    option fields, merge and certify flags and sorted bindings, joined.
    omegad does not call it: the fingerprint is a 62-bit hash, so two
    different queries can share it. It stays for the benchmark
    harness's in-process [serve.key] span. *)
val key :
  fingerprint:string ->
  opts:Counting.Engine.options ->
  merge:bool ->
  certify:bool ->
  at:(string * Zint.t) list ->
  string
