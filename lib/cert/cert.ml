(* Certificate recorder and witness generator — see cert.mli. *)

module V = Presburger.Var
module A = Presburger.Affine
module J = Obs.Ojson
module VM = V.Map

type snapshot = {
  wilds : V.t list;
  eqs : A.t list;
  geqs : A.t list;
  strides : (Zint.t * A.t) list;
}

let snapshot ~wilds ~eqs ~geqs ~strides =
  { wilds = List.sort_uniq V.compare wilds; eqs; geqs; strides }

type site = Dnf | Gist | Simplify | Subtree | Region | Pin | Branch

let site_name = function
  | Dnf -> "dnf"
  | Gist -> "gist"
  | Simplify -> "simplify"
  | Subtree -> "subtree"
  | Region -> "region"
  | Pin -> "pin"
  | Branch -> "branch"

type gf_entry = {
  gf_vars : string list;
  gf_clause : snapshot;
  gf_count : Zint.t;
}

type event = Refuted of site * snapshot | Counted of gf_entry

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)

let m_unwitnessed = Obs.Metrics.counter "cert.unwitnessed"
let m_emitted = Obs.Metrics.counter "cert.emitted"

let note_emitted () = Obs.Metrics.incr m_emitted

(* Each certifying request gets its own recorder, installed in the
   submitting domain's DLS by [with_recording] and propagated to pool
   workers through the [Obs.Ambient] capture in [Pool.spawn] — so two
   concurrent certifying requests (one per omegad handler domain, which
   never fans out) accumulate disjoint event lists.
   Event storage inside one recorder is a mutex-protected list, because
   a fanned-out request's tasks record from several worker domains
   (recording happens on refutation paths, which are not hot unless the
   pre-filter prunes thousands of pins — hence the cap and [full]). *)
type recorder = {
  r_mu : Mutex.t;
  mutable r_events : event list;
  mutable r_refuted_seen : int;
  mutable r_gf_seen : int;
  mutable r_dropped : int;
}

let refuted_cap = 512
let gf_cap = 512

let current : recorder option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let active () = !(Domain.DLS.get current)

let () =
  Obs.Ambient.register (fun () ->
      let captured = active () in
      {
        Obs.Ambient.run =
          (fun f ->
            let cell = Domain.DLS.get current in
            let saved = !cell in
            cell := captured;
            Fun.protect ~finally:(fun () -> cell := saved) f);
      })

let armed () = match active () with Some _ -> true | None -> false

(* Racy read by design: a stale [false] only means one extra snapshot is
   built and then dropped under the lock. *)
let full () =
  match active () with
  | None -> false
  | Some r -> r.r_refuted_seen >= refuted_cap

let record_refuted site s =
  match active () with
  | None -> ()
  | Some r ->
      Mutex.lock r.r_mu;
      if r.r_refuted_seen >= refuted_cap then r.r_dropped <- r.r_dropped + 1
      else begin
        r.r_refuted_seen <- r.r_refuted_seen + 1;
        r.r_events <- Refuted (site, s) :: r.r_events
      end;
      Mutex.unlock r.r_mu

let record_gf ~vars ~clause ~count =
  match active () with
  | None -> ()
  | Some r ->
      Mutex.lock r.r_mu;
      if r.r_gf_seen >= gf_cap then r.r_dropped <- r.r_dropped + 1
      else begin
        r.r_gf_seen <- r.r_gf_seen + 1;
        r.r_events <-
          Counted { gf_vars = vars; gf_clause = clause; gf_count = count }
          :: r.r_events
      end;
      Mutex.unlock r.r_mu

let with_recording f =
  let cell = Domain.DLS.get current in
  let saved = !cell in
  let r =
    {
      r_mu = Mutex.create ();
      r_events = [];
      r_refuted_seen = 0;
      r_gf_seen = 0;
      r_dropped = 0;
    }
  in
  cell := Some r;
  let finish () =
    cell := saved;
    Mutex.lock r.r_mu;
    let ev = List.rev r.r_events and d = r.r_dropped in
    Mutex.unlock r.r_mu;
    (ev, d)
  in
  match f () with
  | x ->
      let ev, d = finish () in
      (x, ev, d)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (finish ());
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Witness generation                                                  *)

type rowref = Req of int | Rgeq of int

type comb = (rowref * Zint.t) list

type witness =
  | Farkas of comb
  | Stride_gap of [ `Eq of int | `Stride of int ]
  | Enum of {
      var : V.t;
      lo : Zint.t;
      hi : Zint.t;
      lo_comb : comb;
      hi_comb : comb;
      cases : witness list;
    }

(* Working rows for rational Fourier–Motzkin elimination, each tracking
   the combination of original rows it was derived from. An equality
   row enters as two opposite inequalities whose λ entries net at
   extraction time. Invariant: [cf] holds no zero coefficients. *)
type wrow = { cf : Qnum.t VM.t; k : Qnum.t; lam : (rowref * Qnum.t) list }

let lam_add a b =
  List.fold_left
    (fun acc (r, q) ->
      match List.assoc_opt r acc with
      | None -> (r, q) :: acc
      | Some q0 ->
          let q' = Qnum.add q0 q in
          let acc = List.remove_assoc r acc in
          if Qnum.is_zero q' then acc else (r, q') :: acc)
    a b

let lam_scale s l = List.map (fun (r, q) -> (r, Qnum.mul s q)) l

let wrow_scale s r =
  { cf = VM.map (Qnum.mul s) r.cf; k = Qnum.mul s r.k; lam = lam_scale s r.lam }

let wrow_add a b =
  {
    cf =
      VM.union
        (fun _ x y ->
          let s = Qnum.add x y in
          if Qnum.is_zero s then None else Some s)
        a.cf b.cf;
    k = Qnum.add a.k b.k;
    lam = lam_add a.lam b.lam;
  }

let wrow_of_aff lam e =
  {
    cf =
      A.fold
        (fun v c m ->
          if Zint.is_zero c then m else VM.add v (Qnum.of_zint c) m)
        e VM.empty;
    k = Qnum.of_zint (A.constant e);
    lam;
  }

let base_rows s =
  List.concat
    (List.mapi
       (fun i e ->
         [
           wrow_of_aff [ (Req i, Qnum.one) ] e;
           wrow_of_aff [ (Req i, Qnum.minus_one) ] (A.neg e);
         ])
       s.eqs)
  @ List.mapi (fun i e -> wrow_of_aff [ (Rgeq i, Qnum.one) ] e) s.geqs

(* Integer λ from a rational combination: scale by the lcm of the
   denominators. Positive scaling preserves sign constraints. *)
let int_comb lam =
  let l =
    List.fold_left (fun acc (_, q) -> Zint.lcm acc (Qnum.den q)) Zint.one lam
  in
  List.filter_map
    (fun (r, q) ->
      let z = Qnum.mul q (Qnum.of_zint l) in
      match Qnum.to_zint z with
      | Some z when not (Zint.is_zero z) -> Some ((r, z) : rowref * Zint.t)
      | _ -> None)
    lam

let is_const_row r = VM.is_empty r.cf

let neg_const_row rows =
  List.find_opt (fun r -> is_const_row r && Qnum.sign r.k < 0) rows

(* Caps keeping generation cheap: FM row blowup, variable count, enum
   width, and a shared recursion budget. Failing a cap fails generation
   (the refutation goes unwitnessed), never correctness. *)
let row_cap = 160
let var_cap = 12
let enum_width_cap = 64
let gen_budget = 4096

let rows_vars rows =
  List.fold_left
    (fun acc r -> VM.fold (fun v _ acc -> V.Set.add v acc) r.cf acc)
    V.Set.empty rows

(* Eliminate [v]: keep rows without it, cross every lower (coeff > 0)
   with every upper (coeff < 0) after normalizing |coeff on v| to 1. *)
let eliminate v rows =
  let pos, neg, rest =
    List.fold_left
      (fun (p, n, z) r ->
        match VM.find_opt v r.cf with
        | None -> (p, n, r :: z)
        | Some q when Qnum.sign q > 0 -> (r :: p, n, z)
        | Some _ -> (p, r :: n, z))
      ([], [], []) rows
  in
  if (List.length pos * List.length neg) + List.length rest > row_cap then
    None
  else
    Some
      (List.fold_left
         (fun acc p ->
           let a = VM.find v p.cf in
           let p1 = wrow_scale (Qnum.inv a) p in
           List.fold_left
             (fun acc n ->
               let b = VM.find v n.cf in
               let n1 = wrow_scale (Qnum.inv (Qnum.neg b)) n in
               wrow_add p1 n1 :: acc)
             acc neg)
         rest pos)

let cheapest_var rows vs =
  let cost v =
    let p, n =
      List.fold_left
        (fun (p, n) r ->
          match VM.find_opt v r.cf with
          | None -> (p, n)
          | Some q when Qnum.sign q > 0 -> (p + 1, n)
          | Some _ -> (p, n + 1))
        (0, 0) rows
    in
    p * n
  in
  match V.Set.elements vs with
  | [] -> None
  | v0 :: rest ->
      Some
        (fst
           (List.fold_left
              (fun (bv, bc) v ->
                let c = cost v in
                if c < bc then (v, c) else (bv, bc))
              (v0, cost v0) rest))

(* Full elimination looking for a derived negative constant. *)
let farkas s =
  let rec go rows =
    match neg_const_row rows with
    | Some r -> Some (int_comb r.lam)
    | None -> (
        let vs = rows_vars rows in
        if V.Set.cardinal vs > var_cap then None
        else
          match cheapest_var rows vs with
          | None -> None
          | Some v -> (
              match eliminate v rows with
              | None -> None
              | Some rows' -> go rows'))
  in
  go (base_rows s)

(* Project onto [keep]: eliminate every other variable, then read the
   tightest integer interval for [keep] off the single-variable rows. *)
let project s keep =
  let rec elim rows =
    let vs = V.Set.remove keep (rows_vars rows) in
    if V.Set.is_empty vs then Some rows
    else if V.Set.cardinal vs > var_cap then None
    else
      match cheapest_var rows vs with
      | None -> Some rows
      | Some v -> (
          match eliminate v rows with
          | None -> None
          | Some rows' -> elim rows')
  in
  match elim (base_rows s) with
  | None -> None
  | Some rows ->
      let best =
        List.fold_left
          (fun (lo, hi) r ->
            match VM.find_opt keep r.cf with
            | None -> (lo, hi)
            | Some a when Qnum.sign a > 0 ->
                (* a·v + k ≥ 0 → v ≥ ⌈−k/a⌉ *)
                let b = Qnum.ceil (Qnum.div (Qnum.neg r.k) a) in
                let lo =
                  match lo with
                  | Some (b0, _) when Zint.compare b0 b >= 0 -> lo
                  | _ -> Some (b, r.lam)
                in
                (lo, hi)
            | Some a ->
                (* a·v + k ≥ 0, a < 0 → v ≤ ⌊k/−a⌋ *)
                let b = Qnum.floor (Qnum.div r.k (Qnum.neg a)) in
                let hi =
                  match hi with
                  | Some (b0, _) when Zint.compare b0 b <= 0 -> hi
                  | _ -> Some (b, r.lam)
                in
                (lo, hi))
          (None, None) rows
      in
      (match best with
      | Some (lo, lo_lam), Some (hi, hi_lam) ->
          Some (lo, int_comb lo_lam, hi, int_comb hi_lam)
      | _ -> None)

let subst_snapshot s v x =
  let k = A.const x in
  let sub e = A.subst e v k in
  {
    wilds = List.filter (fun w -> not (V.equal w v)) s.wilds;
    eqs = List.map sub s.eqs;
    geqs = List.map sub s.geqs;
    strides = List.map (fun (m, e) -> (m, sub e)) s.strides;
  }

(* Single-row refutations: a constant row that fails outright, or a
   gcd gap (no integer point satisfies the row alone). *)
let syntactic s =
  let geq =
    List.find_index
      (fun e -> A.is_const e && Zint.sign (A.constant e) < 0)
      s.geqs
  in
  match geq with
  | Some i -> Some (Farkas [ (Rgeq i, Zint.one) ])
  | None -> (
      let eq_const =
        List.find_index
          (fun e -> A.is_const e && not (Zint.is_zero (A.constant e)))
          s.eqs
      in
      match eq_const with
      | Some i ->
          (* λ·e must be negative: pick λ = ∓1 by the constant's sign. *)
          let e = List.nth s.eqs i in
          let l =
            if Zint.sign (A.constant e) > 0 then Zint.minus_one else Zint.one
          in
          Some (Farkas [ (Req i, l) ])
      | None -> (
          let eq_gap =
            List.find_index
              (fun e ->
                let g = A.gcd_coeffs e in
                (not (Zint.is_zero g))
                && not (Zint.divides g (A.constant e)))
              s.eqs
          in
          match eq_gap with
          | Some i -> Some (Stride_gap (`Eq i))
          | None ->
              List.find_index
                (fun (m, e) ->
                  let g = Zint.gcd m (A.gcd_coeffs e) in
                  not (Zint.divides g (A.constant e)))
                s.strides
              |> Option.map (fun i -> Stride_gap (`Stride i))))

let snapshot_vars s =
  let add acc e = List.fold_left (fun a v -> V.Set.add v a) acc (A.vars e) in
  let acc = List.fold_left add V.Set.empty s.eqs in
  List.fold_left add acc s.geqs

let rec gen depth budget s =
  decr budget;
  if !budget < 0 || depth > 5 then None
  else
    match syntactic s with
    | Some w -> Some w
    | None -> (
        match farkas s with
        | Some lam -> Some (Farkas lam)
        | None ->
            (* Rationally feasible (or FM gave up): find a variable with
               a provably bounded integer range and case on it. *)
            let rec try_vars = function
              | [] -> None
              | v :: rest -> (
                  match project s v with
                  | None -> try_vars rest
                  | Some (lo, lo_comb, hi, hi_comb) ->
                      if Zint.compare lo hi > 0 then
                        (* integer gap: the rational interval is nonempty
                           but contains no integer *)
                        Some
                          (Enum
                             { var = v; lo; hi; lo_comb; hi_comb; cases = [] })
                      else begin
                        let width = Zint.sub hi lo in
                        match Zint.to_int width with
                        | Some w when w < enum_width_cap -> (
                            let rec cases x acc =
                              if Zint.compare x hi > 0 then
                                Some (List.rev acc)
                              else
                                match
                                  gen (depth + 1) budget (subst_snapshot s v x)
                                with
                                | None -> None
                                | Some c -> cases (Zint.succ x) (c :: acc)
                            in
                            match cases lo [] with
                            | Some cs ->
                                Some
                                  (Enum
                                     {
                                       var = v;
                                       lo;
                                       hi;
                                       lo_comb;
                                       hi_comb;
                                       cases = cs;
                                     })
                            | None -> try_vars rest)
                        | _ -> try_vars rest
                      end)
            in
            try_vars (V.Set.elements (snapshot_vars s)))

let witness s =
  match gen 0 (ref gen_budget) s with
  | Some w -> Some w
  | None ->
      Obs.Metrics.incr m_unwitnessed;
      None

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let zstr z = J.Str (Zint.to_string z)

let row_json e =
  J.Obj
    [
      ("c", zstr (A.constant e));
      ( "t",
        J.Arr
          (List.map
             (fun v -> J.Arr [ J.Str (V.to_string v); zstr (A.coeff e v) ])
             (A.vars e)) );
    ]

let clause_json s =
  J.Obj
    [
      ("wilds", J.Arr (List.map (fun v -> J.Str (V.to_string v)) s.wilds));
      ("eqs", J.Arr (List.map row_json s.eqs));
      ("geqs", J.Arr (List.map row_json s.geqs));
      ( "strides",
        J.Arr
          (List.map
             (fun (m, e) -> J.Arr [ zstr m; row_json e ])
             s.strides) );
    ]

let comb_json c =
  J.Arr
    (List.map
       (fun (r, z) ->
         match r with
         | Req i -> J.Arr [ J.Str "eq"; J.int i; zstr z ]
         | Rgeq i -> J.Arr [ J.Str "geq"; J.int i; zstr z ])
       c)

let rec witness_json = function
  | Farkas lam -> J.Obj [ ("kind", J.Str "farkas"); ("lambda", comb_json lam) ]
  | Stride_gap (`Eq i) ->
      J.Obj
        [
          ("kind", J.Str "stride_gap");
          ("row", J.Str "eq");
          ("idx", J.int i);
        ]
  | Stride_gap (`Stride i) ->
      J.Obj
        [
          ("kind", J.Str "stride_gap");
          ("row", J.Str "stride");
          ("idx", J.int i);
        ]
  | Enum { var; lo; hi; lo_comb; hi_comb; cases } ->
      J.Obj
        [
          ("kind", J.Str "enum");
          ("var", J.Str (V.to_string var));
          ("lo", zstr lo);
          ("hi", zstr hi);
          ("lo_comb", comb_json lo_comb);
          ("hi_comb", comb_json hi_comb);
          ("cases", J.Arr (List.map witness_json cases));
        ]

let gf_json g =
  J.Obj
    [
      ("vars", J.Arr (List.map (fun v -> J.Str v) g.gf_vars));
      ("clause", clause_json g.gf_clause);
      ("count", zstr g.gf_count);
    ]
