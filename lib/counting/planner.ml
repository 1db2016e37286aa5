(* Cost-model-driven per-clause planning — see planner.mli. *)

module V = Presburger.Var
module A = Presburger.Affine
module C = Omega.Clause

let m_adaptive = Obs.Metrics.counter "planner.adaptive_clauses"
let note_adaptive () = Obs.Metrics.incr m_adaptive

(* Caps keep every score a small int: the model ranks, it does not
   count, and uncapped products of big coefficients would overflow. *)
let score_cap = 1_000_000

let mul_capped a b =
  if a >= score_cap || b >= score_cap || a * b >= score_cap then score_cap
  else a * b

let add_capped a b = if a >= score_cap - b then score_cap else a + b

(* Per-variable features of eliminating [v] from [c]:
   - [pairs]: lower-bound count x upper-bound count — the number of
     bound combinations the elimination must consider (the engine's
     static score);
   - [splinter]: predicted residue-splinter cost — for each non-exact
     bound pair (both coefficients > 1, Pugh's exact-shadow condition
     fails) the pin loop visits O(a.b) splinters, summed over pairs and
     scaled by stride moduli on [v] (each multiplies the residue
     classes);
   - [nonunit]: 1 when any bound on [v] has a non-unit coefficient
     (eliminating such a variable also multiplies wildcard strides). *)
let var_score (c : C.t) v =
  let lowers = ref [] and uppers = ref [] in
  List.iter
    (fun e ->
      let k = A.coeff e v in
      let s = Zint.sign k in
      if s > 0 then lowers := Zint.abs k :: !lowers
      else if s < 0 then uppers := Zint.abs k :: !uppers)
    c.C.geqs;
  let pairs = mul_capped (List.length !lowers) (List.length !uppers) in
  let pair_cost a b =
    if Zint.equal a Zint.one || Zint.equal b Zint.one then 0
    else
      match Zint.to_int (Zint.mul a b) with
      | Some n -> min n score_cap
      | None -> score_cap
  in
  let splinter =
    List.fold_left
      (fun acc a ->
        List.fold_left (fun acc b -> add_capped acc (pair_cost a b)) acc
          !uppers)
      0 !lowers
  in
  let stride_scale =
    List.fold_left
      (fun acc (m, e) ->
        if Zint.is_zero (A.coeff e v) then acc
        else
          match Zint.to_int m with
          | Some m -> mul_capped acc (max 1 m)
          | None -> score_cap)
      1 c.C.strides
  in
  let splinter = mul_capped (max 1 splinter) stride_scale - stride_scale in
  let nonunit =
    if List.exists (fun k -> not (Zint.equal k Zint.one)) (!lowers @ !uppers)
    then 1
    else 0
  in
  (pairs, splinter, nonunit)

let pick_var (c : C.t) vars =
  match vars with
  | [] -> invalid_arg "Planner.pick_var: no candidates"
  | v0 :: rest ->
      (* First-wins on strict lexicographic less-than: deterministic in
         the clause and the candidate order alone. *)
      let best = ref v0 and best_score = ref (var_score c v0) in
      List.iter
        (fun v ->
          let s = var_score c v in
          if compare s !best_score < 0 then begin
            best := v;
            best_score := s
          end)
        rest;
      !best

type decision = {
  concrete : bool;
  adaptive_order : bool;
  use_gf : bool;
  predicted_fanout : int;
  rows : int;
  weight : int;
}

let order (c : C.t) vars =
  (* Stable sort by the cost model against the original clause; the
     engine re-scores per elimination (the clause evolves), so this is
     the static plan surfaced by --explain-plan, and the exact order for
     the first pick. *)
  let all = C.all_vars c in
  List.filter (fun v -> V.Set.mem v all) vars
  |> List.stable_sort (fun a b -> compare (var_score c a) (var_score c b))

let plan_clause ~exact ~const_poly ~vars (c : C.t) =
  let rows = C.size c in
  let predicted_fanout = Gfcount.estimate_fanout vars c in
  let concrete =
    V.Set.subset (C.free_vars c)
      (List.fold_left (fun s v -> V.Set.add v s) V.Set.empty vars)
  in
  (* The collapse-safe zone (see the .mli): only fully concrete clauses
     under an Exact strategy with a constant summand render as a single
     top-guarded constant piece after [Value.simplify], making backend
     and order choices invisible in the output. *)
  let safe = exact && const_poly && concrete in
  let use_gf = safe && predicted_fanout >= 2 in
  let adaptive_order = safe in
  let weight = mul_capped (max 1 rows) (1 + min predicted_fanout 1024) in
  { concrete; adaptive_order; use_gf; predicted_fanout; rows; weight }

let explain ~exact ~const_poly ~vars cls =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "plan: %d clause(s), vars=[%s], exact=%b const_poly=%b\n"
       (List.length cls)
       (String.concat " " (List.map V.to_string vars))
       exact const_poly);
  List.iteri
    (fun i c ->
      let d = plan_clause ~exact ~const_poly ~vars c in
      let order = order c vars in
      let backend = if d.use_gf then "gf" else "pugh" in
      Buffer.add_string buf
        (Printf.sprintf
           "  clause %d: rows=%d fanout~%d backend=%s order=%s weight=%d \
            concrete=%b adaptive_order=%b\n"
           i d.rows d.predicted_fanout backend
           (match order with
           | [] -> "[]"
           | o -> "[" ^ String.concat " " (List.map V.to_string o) ^ "]")
           d.weight d.concrete d.adaptive_order);
      List.iter
        (fun v ->
          let pairs, splinter, nonunit = var_score c v in
          Buffer.add_string buf
            (Printf.sprintf "    var %s: pairs=%d splinter=%d nonunit=%d\n"
               (V.to_string v) pairs splinter nonunit))
        order)
    cls;
  Buffer.contents buf
