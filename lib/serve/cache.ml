(* Value cache — see cache.mli. *)

let m_hits = Obs.Metrics.counter "serve.cache_hits"

let m_misses = Obs.Metrics.counter "serve.cache_misses"

let m_evictions = Obs.Metrics.counter "serve.cache_evictions"

let m_entries = Obs.Metrics.gauge "serve.cache_entries"

let m_weight = Obs.Metrics.gauge "serve.cache_weight"

type 'a node = {
  key : string;
  entry : 'a;
  weight : int;  (* at least 1 *)
  expires_at : float;  (* infinity when no TTL *)
  mutable prev : 'a node option;  (* toward head = most recent *)
  mutable next : 'a node option;  (* toward tail = least recent *)
}

type 'a t = {
  mu : Mutex.t;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable total : int;  (* sum of the stored weights *)
  capacity : int;
  ttl_s : float option;
  weigh : 'a -> int;
}

let create ~capacity ?ttl_s ?(weight = fun _ -> 1) () =
  {
    mu = Mutex.create ();
    tbl = Hashtbl.create 256;
    head = None;
    tail = None;
    total = 0;
    capacity = max 1 capacity;
    ttl_s;
    weigh = weight;
  }

let publish t =
  Obs.Metrics.set m_entries (Hashtbl.length t.tbl);
  Obs.Metrics.set m_weight t.total

(* List surgery; all under t.mu. *)

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop t n =
  unlink t n;
  Hashtbl.remove t.tbl n.key;
  t.total <- t.total - n.weight;
  publish t

let find t key =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some n when n.expires_at >= Unix.gettimeofday () ->
        unlink t n;
        push_front t n;
        Obs.Metrics.incr m_hits;
        Some n.entry
    | Some n ->
        (* Expired: treat as a miss and reclaim the slot. *)
        drop t n;
        Obs.Metrics.incr m_evictions;
        Obs.Metrics.incr m_misses;
        None
    | None ->
        Obs.Metrics.incr m_misses;
        None
  in
  Mutex.unlock t.mu;
  r

let add t key entry =
  let weight = max 1 (t.weigh entry) in
  (* Too heavy to keep: storing it would evict everything else. *)
  if weight <= t.capacity then begin
    Mutex.lock t.mu;
    (match Hashtbl.find_opt t.tbl key with Some n -> drop t n | None -> ());
    let expires_at =
      match t.ttl_s with
      | Some ttl -> Unix.gettimeofday () +. ttl
      | None -> infinity
    in
    let n = { key; entry; weight; expires_at; prev = None; next = None } in
    Hashtbl.replace t.tbl key n;
    push_front t n;
    t.total <- t.total + weight;
    while t.total > t.capacity do
      match t.tail with
      | Some last ->
          drop t last;
          Obs.Metrics.incr m_evictions
      | None -> assert false
    done;
    publish t;
    Mutex.unlock t.mu
  end

let purge_expired t =
  let now = Unix.gettimeofday () in
  Mutex.lock t.mu;
  let stale =
    Hashtbl.fold
      (fun _ n acc -> if n.expires_at < now then n :: acc else acc)
      t.tbl []
  in
  List.iter
    (fun n ->
      drop t n;
      Obs.Metrics.incr m_evictions)
    stale;
  Mutex.unlock t.mu;
  List.length stale

let clear t =
  Mutex.lock t.mu;
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None;
  t.total <- 0;
  publish t;
  Mutex.unlock t.mu

let length t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.mu;
  n

let weight t =
  Mutex.lock t.mu;
  let w = t.total in
  Mutex.unlock t.mu;
  w

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)

let add_opts b opts =
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '|';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v)
    (Counting.Engine.opts_fields opts)

(* The option fields are fixed names and [|]-free values, so ending the
   key with the query text, verbatim, keeps it injective. *)
let value_key ~query ~opts ~merge =
  let b = Buffer.create (String.length query + 128) in
  add_opts b opts;
  Buffer.add_string b (if merge then "|m1|" else "|m0|");
  Buffer.add_string b query;
  Buffer.contents b

let key ~fingerprint ~opts ~merge ~certify ~at =
  let b = Buffer.create 96 in
  Buffer.add_string b fingerprint;
  add_opts b opts;
  Buffer.add_string b (if merge then "|m1" else "|m0");
  Buffer.add_string b (if certify then "|c1" else "|c0");
  List.iter
    (fun (n, z) ->
      Buffer.add_char b '@';
      Buffer.add_string b n;
      Buffer.add_char b '=';
      Buffer.add_string b (Zint.to_string z))
    at;
  Buffer.contents b
