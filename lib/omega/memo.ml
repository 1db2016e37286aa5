module V = Presburger.Var
module A = Presburger.Affine

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

type counters = {
  mutable feas_queries : int;
  mutable feas_hits : int;
  mutable elim_queries : int;
  mutable elim_hits : int;
  mutable gist_queries : int;
  mutable gist_hits : int;
  mutable eliminations : int;
  mutable evictions : int;
}

let zero_counters () =
  {
    feas_queries = 0;
    feas_hits = 0;
    elim_queries = 0;
    elim_hits = 0;
    gist_queries = 0;
    gist_hits = 0;
    eliminations = 0;
    evictions = 0;
  }

(* Per-domain counter records, registered on first touch in a global
   list. The hot path mutates a plain record the owning domain got from
   DLS — no atomics, no sharing — and [snapshot] sums every registered
   record. Records of dead domains stay registered so their counts are
   never lost. [snapshot]/[reset_counters] are meant to be called while
   worker domains are quiescent (between queries, as [Instr.collect]
   does); concurrent mutation only risks slightly stale sums. *)
let registry_mu = Mutex.create ()
let registry : counters list ref = ref []

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let counters_key =
  Domain.DLS.new_key (fun () ->
      let c = zero_counters () in
      locked registry_mu (fun () -> registry := c :: !registry);
      c)

let local () = Domain.DLS.get counters_key

let add_counters acc c =
  {
    feas_queries = acc.feas_queries + c.feas_queries;
    feas_hits = acc.feas_hits + c.feas_hits;
    elim_queries = acc.elim_queries + c.elim_queries;
    elim_hits = acc.elim_hits + c.elim_hits;
    gist_queries = acc.gist_queries + c.gist_queries;
    gist_hits = acc.gist_hits + c.gist_hits;
    eliminations = acc.eliminations + c.eliminations;
    evictions = acc.evictions + c.evictions;
  }

let snapshot () =
  locked registry_mu (fun () ->
      List.fold_left add_counters (zero_counters ()) !registry)

let diff a b =
  {
    feas_queries = a.feas_queries - b.feas_queries;
    feas_hits = a.feas_hits - b.feas_hits;
    elim_queries = a.elim_queries - b.elim_queries;
    elim_hits = a.elim_hits - b.elim_hits;
    gist_queries = a.gist_queries - b.gist_queries;
    gist_hits = a.gist_hits - b.gist_hits;
    eliminations = a.eliminations - b.eliminations;
    evictions = a.evictions - b.evictions;
  }

let reset_counters () =
  locked registry_mu (fun () ->
      List.iter
        (fun c ->
          c.feas_queries <- 0;
          c.feas_hits <- 0;
          c.elim_queries <- 0;
          c.elim_hits <- 0;
          c.gist_queries <- 0;
          c.gist_hits <- 0;
          c.eliminations <- 0;
          c.evictions <- 0)
        !registry)

let counters_to_fields c =
  [
    ("feas_queries", c.feas_queries);
    ("feas_hits", c.feas_hits);
    ("elim_queries", c.elim_queries);
    ("elim_hits", c.elim_hits);
    ("gist_queries", c.gist_queries);
    ("gist_hits", c.gist_hits);
    ("eliminations", c.eliminations);
    ("evictions", c.evictions);
  ]

(* ------------------------------------------------------------------ *)
(* Enable flag and clear registry                                      *)

(* Default on; OMEGA_MEMO=0 disables from the environment (bench and CI
   comparisons). Atomic so any domain observes a flip immediately. *)
let enabled_flag = Atomic.make (Obs.Envcfg.bool_or "OMEGA_MEMO" ~default:true)
let enabled () = Atomic.get enabled_flag
let clearers_mu = Mutex.create ()
let clearers : (unit -> unit) list ref = ref []

let register_clearer f =
  locked clearers_mu (fun () -> clearers := f :: !clearers)

let clear_all () =
  let fs = locked clearers_mu (fun () -> !clearers) in
  List.iter (fun f -> f ()) fs

let set_enabled b =
  Atomic.set enabled_flag b;
  if not b then clear_all ()

(* ------------------------------------------------------------------ *)
(* Request epochs                                                      *)

(* Cached values embed fresh-minted wild names, and per-request
   renumbering (see [Presburger.Var.install_counter]) makes those names
   collide across requests: request B could hit an entry request A wrote
   and receive A's wilds — wrong identities, and nondeterministic
   output. Each server request therefore runs under a unique {e epoch};
   an entry written under another epoch is treated as a miss and removed
   on sight. A generation bump at request start is not enough: a still
   in-flight request could repopulate shards after the bump. The default
   epoch 0 is shared by the whole process, so standalone tools keep full
   cross-query reuse. *)
let epoch_cell : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let current_epoch () = !(Domain.DLS.get epoch_cell)
let set_epoch e = Domain.DLS.get epoch_cell := e

(* ------------------------------------------------------------------ *)
(* Bounded LRU tables                                                  *)

module Lru (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'v node = {
    key : K.t;
    value : 'v;
    weight : int;
    epoch : int;  (* request epoch the entry was written under *)
    mutable prev : 'v node option;
    mutable next : 'v node option;
  }

  (* Capacity is a {e weight} budget, not an entry count: entries carry a
     caller-chosen weight (default 1) and the least recently used are
     evicted until the total fits. Elimination results range from a
     single clause to splinter storms of hundreds (several hundred KB
     retained each — enough to double the program's live heap, which is
     pure GC drag when the entries never hit), so bounding by retained
     size rather than count is what actually bounds memory.

     Each domain owns a private {e shard} of the table (DLS-backed): the
     hot path is exactly the single-domain doubly-linked LRU, with no
     locks and no shared mutable state. Cached results are pure functions
     of their keys, so a miss in one domain for an entry another holds
     costs recomputation, never correctness. [clear] cannot reach into
     another domain's shard safely, so it bumps an atomic {e generation};
     every shard lazily resets itself on its owner's next access when its
     recorded generation is stale. *)
  type 'v shard = {
    tbl : 'v node H.t;
    mutable total : int;  (* sum of live weights *)
    mutable head : 'v node option;  (* most recently used *)
    mutable tail : 'v node option;  (* least recently used *)
    mutable gen : int;  (* generation this shard last synced to *)
  }

  type 'v t = {
    cap : int;
    shards : 'v shard Domain.DLS.key;
    generation : int Atomic.t;
  }

  let reset_shard s =
    H.reset s.tbl;
    s.total <- 0;
    s.head <- None;
    s.tail <- None

  let create cap =
    if cap <= 0 then invalid_arg "Memo.Lru.create: capacity must be positive";
    let generation = Atomic.make 0 in
    let shards =
      Domain.DLS.new_key (fun () ->
          {
            tbl = H.create (min cap 1024);
            total = 0;
            head = None;
            tail = None;
            gen = Atomic.get generation;
          })
    in
    let t = { cap; shards; generation } in
    register_clearer (fun () -> Atomic.incr generation);
    t

  let shard t =
    let s = Domain.DLS.get t.shards in
    let g = Atomic.get t.generation in
    if s.gen <> g then begin
      reset_shard s;
      s.gen <- g
    end;
    s

  let clear t = Atomic.incr t.generation

  let unlink s n =
    (match n.prev with Some p -> p.next <- n.next | None -> s.head <- n.next);
    (match n.next with Some x -> x.prev <- n.prev | None -> s.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front s n =
    n.next <- s.head;
    (match s.head with Some h -> h.prev <- Some n | None -> s.tail <- Some n);
    s.head <- Some n

  let find_opt t k =
    let s = shard t in
    match H.find_opt s.tbl k with
    | None -> None
    | Some n when n.epoch <> current_epoch () ->
        (* Another request's entry: its value may embed that request's
           fresh names. Drop it so the slot can be refilled under the
           current epoch. *)
        unlink s n;
        H.remove s.tbl n.key;
        s.total <- s.total - n.weight;
        None
    | Some n ->
        if s.head != Some n then begin
          unlink s n;
          push_front s n
        end;
        Some n.value

  let add ?(weight = 1) t k v =
    let s = shard t in
    let weight = if weight < 1 then 1 else weight in
    (* An entry that could never fit would evict the whole table for
       nothing: skip it. *)
    if weight <= t.cap && not (H.mem s.tbl k) then begin
      let evictions = ref 0 in
      while s.total + weight > t.cap do
        match s.tail with
        | Some last ->
            unlink s last;
            H.remove s.tbl last.key;
            s.total <- s.total - last.weight;
            incr evictions
        | None -> s.total <- 0
      done;
      if !evictions > 0 then begin
        let c = local () in
        c.evictions <- c.evictions + !evictions
      end;
      let n =
        {
          key = k;
          value = v;
          weight;
          epoch = current_epoch ();
          prev = None;
          next = None;
        }
      in
      H.replace s.tbl k n;
      push_front s n;
      s.total <- s.total + weight
    end

  let length t = H.length (shard t).tbl
end

(* ------------------------------------------------------------------ *)
(* Exact clause keys                                                   *)

(* Keys whose results mention the clause's own variables (elimination,
   the gist minuend) must be exact. Affines are interned, so equality on
   a hash match is a handful of pointer comparisons. *)
module Ckey = struct
  type t = {
    eqs : A.t list;
    geqs : A.t list;
    strides : (Zint.t * A.t) list;
    vars : V.t list;
    salt : int;
    h : int;
  }

  let equal a b =
    a.h = b.h && a.salt = b.salt
    && List.equal A.equal a.eqs b.eqs
    && List.equal A.equal a.geqs b.geqs
    && List.equal
         (fun (m1, e1) (m2, e2) -> Zint.equal m1 m2 && A.equal e1 e2)
         a.strides b.strides
    && List.equal V.equal a.vars b.vars

  let hash k = k.h

  let cmp_stride (m1, e1) (m2, e2) =
    let c = Zint.compare m1 m2 in
    if c <> 0 then c else A.compare e1 e2

  let make ?(salt = 0) ?(vars = []) ~eqs ~geqs ~strides () =
    let eqs = List.sort A.compare (List.map A.intern eqs) in
    let geqs = List.sort A.compare (List.map A.intern geqs) in
    let strides =
      List.sort cmp_stride (List.map (fun (m, e) -> (m, A.intern e)) strides)
    in
    let mix h x = (h * 65599) + x in
    let h =
      List.fold_left (fun h e -> mix h (A.hash e)) salt eqs |> fun h ->
      List.fold_left (fun h e -> mix h (A.hash e)) (mix h 17) geqs |> fun h ->
      List.fold_left
        (fun h (m, e) -> mix (mix h (Zint.hash m)) (A.hash e))
        (mix h 23) strides
      |> fun h ->
      List.fold_left (fun h v -> mix h (V.hash v)) (mix h 31) vars land max_int
    in
    { eqs; geqs; strides; vars; salt; h }

  let of_clause ?salt ?(vars = []) (c : Clause.t) =
    make ?salt
      ~vars:(vars @ V.Set.elements c.wilds)
      ~eqs:c.eqs ~geqs:c.geqs ~strides:c.strides ()
end

(* ------------------------------------------------------------------ *)
(* Canonical (rank-renamed) clause keys                                *)

(* Keys for queries whose answers are invariant under renaming some of
   the clause's variables: feasibility (all variables existential) and
   the gist context (wildcards renamed by [Gist.gist] itself). Renamed
   variables are abstracted to their rank in ascending {!V.compare}
   order, directly on the coefficient structure — no affine or clause is
   built, which keeps the per-query cost a few list allocations.

   Canonicalization is best-effort: a renaming that permutes the
   {!V.compare} order maps to a different key, which only costs a missed
   hit. Soundness needs the converse, and that holds exactly: equal keys
   reconstruct clauses that are syntactically identical up to the rank
   bijection, because ranks are assigned per-clause and [Named] sorts
   before [Wild], so an order-preserving wildcard renaming (the only kind
   {!Clause.rename_wilds} performs) leaves every encoded position
   unchanged. *)
module Fkey = struct
  type vk = R of int | N of V.t  (* rank-abstracted vs. exact variable *)

  let vk_equal a b =
    match (a, b) with
    | R i, R j -> i = j
    | N x, N y -> V.equal x y
    | R _, N _ | N _, R _ -> false

  let vk_compare a b =
    match (a, b) with
    | R i, R j -> Int.compare i j
    | R _, N _ -> -1
    | N _, R _ -> 1
    | N x, N y -> V.compare x y

  let vk_hash = function R i -> (i * 2654435761) land max_int | N v -> V.hash v

  type atom = { cs : (vk * Zint.t) list; k : Zint.t }

  let atom_equal a b =
    Zint.equal a.k b.k
    && List.equal
         (fun (v1, c1) (v2, c2) -> vk_equal v1 v2 && Zint.equal c1 c2)
         a.cs b.cs

  let atom_compare a b =
    let rec go l1 l2 =
      match (l1, l2) with
      | [], [] -> Zint.compare a.k b.k
      | [], _ :: _ -> -1
      | _ :: _, [] -> 1
      | (v1, c1) :: t1, (v2, c2) :: t2 ->
          let c = vk_compare v1 v2 in
          if c <> 0 then c
          else
            let c = Zint.compare c1 c2 in
            if c <> 0 then c else go t1 t2
    in
    go a.cs b.cs

  let atom_hash a =
    List.fold_left
      (fun h (v, c) -> (h * 65599) + (vk_hash v * 31) + Zint.hash c)
      (Zint.hash a.k) a.cs

  type t = {
    eqs : atom list;
    geqs : atom list;
    strides : (Zint.t * atom) list;
    h : int;
  }

  let equal a b =
    a.h = b.h
    && List.equal atom_equal a.eqs b.eqs
    && List.equal atom_equal a.geqs b.geqs
    && List.equal
         (fun (m1, e1) (m2, e2) -> Zint.equal m1 m2 && atom_equal e1 e2)
         a.strides b.strides

  let hash k = k.h

  let cmp_stride (m1, e1) (m2, e2) =
    let c = Zint.compare m1 m2 in
    if c <> 0 then c else atom_compare e1 e2

  (* [encode ranked c]: abstract exactly the variables in [ranked]. *)
  let encode ranked (c : Clause.t) =
    let rmap, _ =
      V.Set.fold
        (fun v (m, i) -> (V.Map.add v i m, i + 1))
        ranked (V.Map.empty, 0)
    in
    let atom_of a =
      let cs =
        A.fold
          (fun v c acc ->
            let vk =
              match V.Map.find_opt v rmap with Some i -> R i | None -> N v
            in
            (vk, c) :: acc)
          a []
      in
      { cs; k = A.constant a }
    in
    let eqs = List.sort atom_compare (List.map atom_of c.eqs) in
    let geqs = List.sort atom_compare (List.map atom_of c.geqs) in
    let strides =
      List.sort cmp_stride (List.map (fun (m, e) -> (m, atom_of e)) c.strides)
    in
    let mix h x = (h * 65599) + x in
    let h =
      List.fold_left (fun h e -> mix h (atom_hash e)) 0 eqs |> fun h ->
      List.fold_left (fun h e -> mix h (atom_hash e)) (mix h 17) geqs
      |> fun h ->
      List.fold_left
        (fun h (m, e) -> mix (mix h (Zint.hash m)) (atom_hash e))
        (mix h 23) strides
      land max_int
    in
    { eqs; geqs; strides; h }
end

(* Feasibility treats every variable as existentially quantified, so the
   key abstracts all variable names. *)
let feas_key (c : Clause.t) = Fkey.encode (Clause.all_vars c) c

(* Gist conjoins [given] after renaming its wildcards, so only the
   structure of [given] up to wildcard names matters. *)
let wilds_canonical_key (c : Clause.t) =
  Fkey.encode (V.Set.inter c.wilds (Clause.all_vars c)) c
