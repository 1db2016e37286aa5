(* Affine forms with hash-consing at the memo boundary. Constructors
   build plain records (no interning — measured ~40% overhead on solver
   workloads when every intermediate is interned); [intern] canonicalizes
   a term in a weak table so that structurally equal interned terms are
   physically equal. The memo tables of [Omega.Memo] intern every affine
   they key on, giving O(1) key equality; [hash] is computed once per
   term on first demand and cached. *)

type t = { coeffs : Zint.t Var.Map.t; const : Zint.t; mutable hcode : int }
(* Invariants: no zero coefficients stored; [hcode] is -1 until the first
   [hash], then the cached structural hash (always >= 0). *)

let structural_hash coeffs const =
  Var.Map.fold
    (fun v c acc -> (acc * 65599) + (Var.hash v * 31) + Zint.hash c)
    coeffs (Zint.hash const)
  land max_int

let hash a =
  if a.hcode >= 0 then a.hcode
  else begin
    let h = structural_hash a.coeffs a.const in
    a.hcode <- h;
    h
  end

let equal a b =
  a == b
  || hash a = hash b
     && Zint.equal a.const b.const
     && Var.Map.equal Zint.equal a.coeffs b.coeffs

module W = Weak.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* One weak intern table per domain (DLS): interning is a cache, not a
   source of truth — two domains may hold distinct physical copies of the
   same term, and [equal] still compares structurally after the physical
   shortcut, so cross-domain sharing is never required for correctness.
   The lazily cached [hcode] write is a benign race: every writer stores
   the same structural hash, and int stores are atomic in OCaml. *)
let table_key = Domain.DLS.new_key (fun () -> W.create 4093)
let intern a = W.merge (Domain.DLS.get table_key) a
let mk coeffs const = { coeffs; const; hcode = -1 }
let zero = mk Var.Map.empty Zint.zero
let const c = mk Var.Map.empty c
let of_int n = const (Zint.of_int n)

let term c v =
  if Zint.is_zero c then zero else mk (Var.Map.singleton v c) Zint.zero

let var v = term Zint.one v

let add a b =
  mk
    (Var.Map.union
       (fun _ x y ->
         let s = Zint.add x y in
         if Zint.is_zero s then None else Some s)
       a.coeffs b.coeffs)
    (Zint.add a.const b.const)

let neg a = mk (Var.Map.map Zint.neg a.coeffs) (Zint.neg a.const)
let sub a b = add a (neg b)

let scale c a =
  if Zint.is_zero c then zero
  else if Zint.is_one c then a
  else mk (Var.Map.map (Zint.mul c) a.coeffs) (Zint.mul c a.const)

let add_const a c =
  if Zint.is_zero c then a else mk a.coeffs (Zint.add a.const c)
let coeff a v = try Var.Map.find v a.coeffs with Not_found -> Zint.zero
let constant a = a.const
let vars a = List.map fst (Var.Map.bindings a.coeffs)
let fold f a init = Var.Map.fold f a.coeffs init
let is_const a = Var.Map.is_empty a.coeffs

let gcd_coeffs a =
  Var.Map.fold (fun _ c acc -> Zint.gcd acc c) a.coeffs Zint.zero

let subst a v r =
  let c = coeff a v in
  if Zint.is_zero c then a
  else add (mk (Var.Map.remove v a.coeffs) a.const) (scale c r)

let divexact a c =
  if Zint.is_one c then a
  else
    mk
      (Var.Map.map (fun x -> Zint.divexact x c) a.coeffs)
      (Zint.divexact a.const c)

let eval env a =
  Var.Map.fold
    (fun v c acc -> Zint.add acc (Zint.mul c (env v)))
    a.coeffs a.const

let compare a b =
  if a == b then 0
  else begin
    let c = Zint.compare a.const b.const in
    if c <> 0 then c else Var.Map.compare Zint.compare a.coeffs b.coeffs
  end

(* Terms in variable order, then the constant (alone when zero); each
   sign goes into the joint, as in [n - 2i + 1]. *)
let add_to_buffer b a =
  let first = ref true in
  let join c =
    if !first then begin
      if Zint.sign c < 0 then Buffer.add_char b '-';
      first := false
    end
    else Buffer.add_string b (if Zint.sign c < 0 then " - " else " + ")
  in
  Var.Map.iter
    (fun v c ->
      join c;
      let m = Zint.abs c in
      if not (Zint.is_one m) then Zint.add_to_buffer b m;
      Var.add_to_buffer b v)
    a.coeffs;
  if !first || not (Zint.is_zero a.const) then begin
    join a.const;
    Zint.add_to_buffer b (Zint.abs a.const)
  end

let to_string a =
  let b = Buffer.create 32 in
  add_to_buffer b a;
  Buffer.contents b

let pp fmt a = Format.pp_print_string fmt (to_string a)

let to_qlin a =
  Var.Map.fold
    (fun v c acc ->
      Qpoly.Lin.add acc
        (Qpoly.Lin.scale (Qnum.of_zint c) (Qpoly.Lin.var (Var.to_string v))))
    a.coeffs
    (Qpoly.Lin.const (Qnum.of_zint a.const))
