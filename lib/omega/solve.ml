module V = Presburger.Var
module A = Presburger.Affine

type mode = Exact_overlapping | Exact_disjoint | Approx_dark | Approx_real

let mode_name = function
  | Exact_overlapping -> "exact_overlapping"
  | Exact_disjoint -> "exact_disjoint"
  | Approx_dark -> "approx_dark"
  | Approx_real -> "approx_real"

(* Per-elimination fan-out (clauses produced; splintering is fan-out > 1)
   and the depth of the projection reduction at clause emission. Always-on
   array increments; the trace events beside them are gated on
   [Obs.Trace.enabled] so disabled tracing allocates nothing. *)
let m_elim_fanout =
  Obs.Metrics.histogram "solve.elim_fanout" ~buckets:[| 1; 2; 4; 8; 16; 32; 64 |]

let m_project_depth =
  Obs.Metrics.histogram "solve.project_depth" ~buckets:[| 1; 2; 4; 8; 16; 32 |]

(* Splinter pins skipped because the pre-filter proved their pin value
   outside the clause's feasible interval (armed runs only). *)
let m_pruned_pins = Obs.Metrics.counter "planner.pruned_pins"

(* Branches of an armed projection dropped by a [Prefilter.probe]
   refutation before being reduced further. *)
let m_pruned_branches = Obs.Metrics.counter "planner.pruned_branches"

(* Bounds on [v] among the inequalities:
   - lower (b, β):  β ≤ b·v   (from  b·v − β ≥ 0)
   - upper (a, α):  a·v ≤ α   (from  α − a·v ≥ 0)
   [rest] collects constraints not involving v. *)
let bounds v geqs =
  List.fold_left
    (fun (lowers, uppers, rest) e ->
      let cf = A.coeff e v in
      if Zint.is_zero cf then (lowers, uppers, e :: rest)
      else begin
        let r = A.subst e v A.zero in
        if Zint.sign cf > 0 then ((cf, A.neg r) :: lowers, uppers, rest)
        else (lowers, (Zint.neg cf, r) :: uppers, rest)
      end)
    ([], [], []) geqs

(* Exactly eliminate [v] using an equality that contains it: from
   k·v = rhs we learn |k| divides rhs (a stride), and every other
   constraint can be scaled by |k| and have k·v replaced by ±rhs
   (inequalities scale by positive constants soundly; strides scale their
   modulus). This "scale-and-substitute" step replaces the CACM mod-trick:
   it is exact, always applicable, and terminates in conjunction with
   stride normalization, which reduces coefficients modulo the modulus. *)
let eliminate_via_eq v c =
  (* One fuel unit per equality elimination: this is the workhorse step
     of projection, feasibility, and the engine's stride handling, so
     fuel tracks real work wherever the recursion goes. *)
  Obs.Budget.charge 1;
  let mc = Memo.local () in
  mc.eliminations <- mc.eliminations + 1;
  let open Clause in
  (* pick the equality with the smallest |coefficient| on v *)
  let best =
    List.fold_left
      (fun best e ->
        let k = A.coeff e v in
        if Zint.is_zero k then best
        else
          match best with
          | Some (k0, _) when Zint.compare (Zint.abs k0) (Zint.abs k) <= 0 ->
              best
          | _ -> Some (k, e))
      None c.eqs
  in
  match best with
  | None ->
      Error.fail ~phase:"solve.eliminate_via_eq"
        ~context:[ ("var", V.to_string v) ]
        "no equality contains the variable"
  | Some (k, e) ->
      let r = A.subst e v A.zero in
      (* k·v = -r. Normalize to k'·v = rhs with k' > 0. *)
      let k', rhs =
        if Zint.sign k > 0 then (k, A.neg r) else (Zint.neg k, r)
      in
      let other_eqs = List.filter (fun e' -> not (e' == e)) c.eqs in
      if Zint.is_one k' then begin
        let c' =
          subst
            { c with eqs = other_eqs; wilds = V.Set.remove v c.wilds }
            v rhs
        in
        c'
      end
      else begin
        let scale_subst x =
          let cv = A.coeff x v in
          if Zint.is_zero cv then x
          else A.add (A.scale k' (A.subst x v A.zero)) (A.scale cv rhs)
        in
        {
          wilds = V.Set.remove v c.wilds;
          eqs = List.map scale_subst other_eqs;
          geqs = List.map scale_subst c.geqs;
          strides =
            (k', rhs)
            :: List.map
                 (fun (m, x) ->
                   if Zint.is_zero (A.coeff x v) then (m, x)
                   else (Zint.mul m k', scale_subst x))
                 c.strides;
        }
      end

let check_no_eq_occurrence v (c : Clause.t) =
  let occurs e = not (Zint.is_zero (A.coeff e v)) in
  if List.exists occurs c.eqs || List.exists (fun (_, e) -> occurs e) c.strides
  then
    Error.fail ~phase:"solve.eliminate"
      ~context:[ ("var", V.to_string v) ]
      "variable still occurs in equalities or strides"

let eliminate_core mode v (c : Clause.t) : Clause.t list =
  let mc = Memo.local () in
  mc.eliminations <- mc.eliminations + 1;
  let lowers, uppers, rest = bounds v c.geqs in
  let base = { c with geqs = rest; wilds = V.Set.remove v c.wilds } in
  if lowers = [] || uppers = [] then [ base ]
  else begin
    let pairs =
      List.concat_map (fun l -> List.map (fun u -> (l, u)) uppers) lowers
    in
    let shadow dark ((b, beta), (a, alpha)) =
      (* real: b·α − a·β ≥ 0; dark: b·α − a·β ≥ (a−1)(b−1) *)
      let e = A.sub (A.scale b alpha) (A.scale a beta) in
      if dark then
        A.add_const e (Zint.neg (Zint.mul (Zint.pred a) (Zint.pred b)))
      else e
    in
    let exact ((b, _), (a, _)) = Zint.is_one a || Zint.is_one b in
    let real_clause =
      { base with geqs = List.map (shadow false) pairs @ base.geqs }
    in
    let dark_clause =
      { base with geqs = List.map (shadow true) pairs @ base.geqs }
    in
    (* Armed runs clamp the splinter-pin loops below: a pin equality
       [aff = i] is satisfiable only for [i] inside the feasible
       interval of [aff] under the clause's propagated variable bounds,
       so values outside it are skipped. Every skipped pin is a provably
       infeasible clause — exactly what downstream [is_feasible]
       filtering would drop — so armed output denotes the same set and
       renders byte-identically after those filters (prefilter.mli). The
       environment is built on first use: exact-shadow eliminations and
       the approximate modes never clamp. *)
    let armed = Prefilter.armed () in
    let penv = lazy (Prefilter.env_of_clause c) in
    let clamp lo hi aff =
      if not armed then (lo, hi)
      else
        let iv = Prefilter.affine_interval (Lazy.force penv) aff in
        ( (match iv.Prefilter.lo with Some l -> Zint.max lo l | None -> lo),
          match iv.Prefilter.hi with Some h -> Zint.min hi h | None -> hi )
    in
    let span lo hi =
      if Zint.compare lo hi > 0 then Zint.zero
      else Zint.succ (Zint.sub hi lo)
    in
    let note_pruned full kept =
      if armed then begin
        let pruned = Zint.sub full kept in
        if Zint.sign pruned > 0 then
          Obs.Metrics.incr
            ~by:(Option.value ~default:max_int (Zint.to_int pruned))
            m_pruned_pins
      end
    in
    (* Cheap real-shadow refutation before any splinter is expanded:
       every solution of [c] projects into the real shadow, so a refuted
       real shadow proves [∃v. c] empty and the whole splinter loop can
       be skipped (the dark shadow emitted below is infeasible too and
       is dropped downstream like any pruned pin). *)
    let region_refuted () =
      let r = armed && Prefilter.probe real_clause = Prefilter.Refuted in
      if r && Cert.armed () then
        Cert.record_refuted Cert.Region (Clause.snapshot c);
      r
    in
    (* Pin-clamp recording: every skipped pin value denotes a provably
       infeasible pinned clause; armed certificate runs snapshot them
       (up to the recorder cap — [Cert.full] keeps huge clamps cheap). *)
    let record_pins mk lo hi =
      if Cert.armed () then begin
        let rec go i =
          if Zint.compare i hi <= 0 && not (Cert.full ()) then begin
            Cert.record_refuted Cert.Pin (Clause.snapshot (mk i));
            go (Zint.succ i)
          end
        in
        go lo
      end
    in
    let record_skipped mk full_lo full_hi lo_i hi_i =
      if Zint.compare lo_i hi_i > 0 then record_pins mk full_lo full_hi
      else begin
        record_pins mk full_lo (Zint.pred lo_i);
        record_pins mk (Zint.succ hi_i) full_hi
      end
    in
    if List.for_all exact pairs then [ dark_clause ]
    else
      match mode with
      | Approx_real -> [ real_clause ]
      | Approx_dark -> [ dark_clause ]
      | Exact_overlapping when region_refuted () -> [ dark_clause ]
      | Exact_overlapping ->
          (* CACM splinters: with a_max the largest upper-bound coefficient,
             any solution missed by the dark shadow has b·v = β + i for some
             lower bound (b, β) and 0 ≤ i ≤ (a_max·b − a_max − b)/a_max. *)
          let amax =
            List.fold_left (fun acc (a, _) -> Zint.max acc a) Zint.one uppers
          in
          let splinters =
            List.concat_map
              (fun (b, beta) ->
                let top =
                  (* (a_max·b − a_max − b) / a_max *)
                  Zint.fdiv
                    (Zint.sub (Zint.mul amax b) (Zint.add amax b))
                    amax
                in
                let pin_base = A.sub (A.scale b (A.var v)) beta in
                let lo_i, hi_i = clamp Zint.zero top pin_base in
                note_pruned (span Zint.zero top) (span lo_i hi_i);
                record_skipped
                  (fun i ->
                    { c with eqs = A.add_const pin_base (Zint.neg i) :: c.eqs })
                  Zint.zero top lo_i hi_i;
                let rec go i acc =
                  if Zint.compare i hi_i > 0 then acc
                  else begin
                    let pin = A.add_const pin_base (Zint.neg i) in
                    let cl = { c with eqs = pin :: c.eqs } in
                    go (Zint.succ i) (eliminate_via_eq v cl :: acc)
                  end
                in
                go lo_i [])
              lowers
          in
          dark_clause :: splinters
      | Exact_disjoint when region_refuted () -> [ dark_clause ]
      | Exact_disjoint ->
          (* Figure 1 (right): for each pair that can miss the dark shadow,
             pin the gap b·α − a·β to each value i below (a−1)(b−1), then
             pin a·b·v within the resulting window; accumulate each
             processed pair's dark condition so later groups are disjoint
             from earlier ones, and emit the full dark shadow last. *)
          let acc_dark = ref [] in
          let outputs = ref [] in
          List.iter
            (fun (((b, beta), (a, _alpha)) as pair) ->
              if not (exact pair) then begin
                let gap = Zint.mul (Zint.pred a) (Zint.pred b) in
                let gap_aff = shadow false pair in
                (* gap_aff = b·α − a·β *)
                let pin_base =
                  A.sub (A.scale (Zint.mul a b) (A.var v)) (A.scale a beta)
                in
                let full =
                  (* Σ_{i=0}^{gap−1} (i+1) = gap·(gap+1)/2 candidate pins *)
                  Zint.divexact (Zint.mul gap (Zint.succ gap)) Zint.two
                in
                let emitted = ref Zint.zero in
                let lo_i, hi_i = clamp Zint.zero (Zint.pred gap) gap_aff in
                record_skipped
                  (fun i ->
                    {
                      c with
                      eqs = A.add_const gap_aff (Zint.neg i) :: c.eqs;
                      geqs = !acc_dark @ c.geqs;
                    })
                  Zint.zero (Zint.pred gap) lo_i hi_i;
                let rec loop_i i =
                  if Zint.compare i hi_i > 0 then ()
                  else begin
                    let guard = A.add_const gap_aff (Zint.neg i) in
                    (* a·b·v = a·β + i' for i' = 0..i *)
                    let lo_i', hi_i' = clamp Zint.zero i pin_base in
                    record_skipped
                      (fun i' ->
                        {
                          c with
                          eqs =
                            guard :: A.add_const pin_base (Zint.neg i') :: c.eqs;
                          geqs = !acc_dark @ c.geqs;
                        })
                      Zint.zero i lo_i' hi_i';
                    let rec loop_i' i' =
                      if Zint.compare i' hi_i' > 0 then ()
                      else begin
                        let pin = A.add_const pin_base (Zint.neg i') in
                        let cl =
                          {
                            c with
                            eqs = guard :: pin :: c.eqs;
                            geqs = !acc_dark @ c.geqs;
                          }
                        in
                        emitted := Zint.succ !emitted;
                        outputs := eliminate_via_eq v cl :: !outputs;
                        loop_i' (Zint.succ i')
                      end
                    in
                    loop_i' lo_i';
                    loop_i (Zint.succ i)
                  end
                in
                loop_i lo_i;
                note_pruned full !emitted;
                acc_dark := shadow true pair :: !acc_dark
              end)
            pairs;
          dark_clause :: List.rev !outputs
  end

let eliminate_uncached mode v c =
  let r = eliminate_core mode v c in
  let fan_out = List.length r in
  Obs.Budget.check_fanout fan_out;
  Obs.Metrics.observe m_elim_fanout fan_out;
  (match r with
  | _ :: _ :: _ when Obs.Trace.enabled () ->
      Obs.Trace.instant "splinter"
        ~attrs:(fun () ->
          [
            ("where", Obs.Trace.Str "solve.eliminate");
            ("mode", Obs.Trace.Str (mode_name mode));
            ("var", Obs.Trace.Str (Presburger.Var.to_string v));
            ("fan_out", Obs.Trace.Int fan_out);
          ])
  | _ -> ());
  r

module ElimTbl = Memo.Lru (Memo.Ckey)

let elim_cache : Clause.t list ElimTbl.t = ElimTbl.create 8192

let mode_tag = function
  | Exact_overlapping -> 0
  | Exact_disjoint -> 1
  | Approx_dark -> 2
  | Approx_real -> 3

let eliminate_memo mode v (c : Clause.t) : Clause.t list =
  (* Charged before the cache lookup, so the fuel a query consumes does
     not depend on cache warmth. *)
  Obs.Budget.charge 1;
  let mc = Memo.local () in
  mc.elim_queries <- mc.elim_queries + 1;
  if not (Memo.enabled ()) then eliminate_uncached mode v c
  else begin
    (* Armed (pre-filter-clamped) and unarmed eliminations of the same
       clause produce different (though equivalent-after-filtering)
       splinter lists, so they must never share a cache entry: the armed
       bit is part of the salt. *)
    let salt =
      mode_tag mode lor if Prefilter.armed () then 4 else 0
    in
    let key = Memo.Ckey.of_clause ~salt ~vars:[ v ] c in
    match ElimTbl.find_opt elim_cache key with
    | Some r ->
        mc.elim_hits <- mc.elim_hits + 1;
        if Obs.Trace.enabled () then
          Obs.Trace.add_attr "memo" (Obs.Trace.Str "hit");
        r
    | None ->
        let r = eliminate_uncached mode v c in
        let w = List.fold_left (fun acc cl -> acc + Clause.size cl) 0 r in
        ElimTbl.add ~weight:w elim_cache key r;
        if Obs.Trace.enabled () then
          Obs.Trace.add_attr "memo" (Obs.Trace.Str "miss");
        r
  end

let eliminate mode v (c : Clause.t) : Clause.t list =
  check_no_eq_occurrence v c;
  (* Guarded span: the disabled path must not even build the closure for
     the attribute list, so hot loops stay allocation-free. *)
  if Obs.Trace.enabled () then
    Obs.Trace.span "solve.eliminate"
      ~attrs:(fun () ->
        [
          ("var", Obs.Trace.Str (V.to_string v));
          ("mode", Obs.Trace.Str (mode_name mode));
          ("constraints", Obs.Trace.Int (Clause.size c));
        ])
      (fun () -> eliminate_memo mode v c)
  else eliminate_memo mode v c

(* Wildcard-occurrence classification used by the reduction loop. *)
let wild_occurrences (c : Clause.t) =
  let occ_in l v = List.exists (fun e -> not (Zint.is_zero (A.coeff e v))) l in
  let in_eqs v = occ_in c.eqs v in
  let in_strides v =
    List.exists (fun (_, e) -> not (Zint.is_zero (A.coeff e v))) c.strides
  in
  let in_geqs v = occ_in c.geqs v in
  (in_eqs, in_strides, in_geqs)

let max_reduction_steps = 10_000

let project_core mode vars (c : Clause.t) : Clause.t list =
  let c = { c with wilds = V.Set.union c.wilds (V.Set.of_list vars) } in
  let out = ref [] in
  let rec reduce steps c =
    Obs.Budget.charge 1;
    if steps > max_reduction_steps then
      Error.fail ~phase:"solve.project"
        ~context:[ ("steps", string_of_int steps) ]
        "reduction did not terminate";
    match Clause.normalize c with
    | None -> ()
    | Some c -> begin
        let c = Clause.solve_unit_wilds c in
        match Clause.normalize c with
        | None -> ()
        | Some c -> begin
            let in_eqs, in_strides, in_geqs = wild_occurrences c in
            (* 1. a wildcard inside an equality: scale-and-substitute. *)
            match
              V.Set.fold
                (fun w best ->
                  if not (in_eqs w) then best
                  else begin
                    let k =
                      List.fold_left
                        (fun acc e ->
                          let k = Zint.abs (A.coeff e w) in
                          if Zint.is_zero k then acc
                          else if Zint.is_zero acc then k
                          else Zint.min acc k)
                        Zint.zero c.eqs
                    in
                    match best with
                    | Some (_, k0) when Zint.compare k0 k <= 0 -> best
                    | _ -> Some (w, k)
                  end)
                c.wilds None
            with
            | Some (w, _) -> reduce (steps + 1) (eliminate_via_eq w c)
            | None -> begin
                (* 2. a wildcard inside a stride: expose it as an equality. *)
                match V.Set.exists in_strides c.wilds with
                | true ->
                    let with_w, without =
                      List.partition
                        (fun (_, e) ->
                          List.exists
                            (fun v -> V.Set.mem v c.wilds)
                            (A.vars e))
                        c.strides
                    in
                    reduce (steps + 1)
                      (Clause.strides_to_eqs
                         { c with strides = with_w }
                      |> fun c' -> { c' with strides = without @ c'.strides })
                | false -> begin
                    (* 3. a wildcard only in inequalities: shadow-eliminate. *)
                    match V.Set.fold
                            (fun w best ->
                              if in_geqs w then
                                let lowers, uppers, _ = bounds w c.geqs in
                                let cost =
                                  List.length lowers * List.length uppers
                                in
                                match best with
                                | Some (_, c0) when c0 <= cost -> best
                                | _ -> Some (w, cost)
                              else best)
                            c.wilds None
                    with
                    | Some (w, _) ->
                        let branches = eliminate mode w c in
                        (* Armed projections refute doomed branches
                           before reducing them further: a [Refuted]
                           verdict is a proof of infeasibility, and
                           every clause such a branch could emit is
                           dropped by downstream [is_feasible]
                           filtering anyway (see prefilter.mli). *)
                        let branches =
                          if Prefilter.armed () then
                            List.filter
                              (fun cl ->
                                let keep =
                                  Prefilter.probe cl <> Prefilter.Refuted
                                in
                                if not keep then begin
                                  Obs.Metrics.incr m_pruned_branches;
                                  if Cert.armed () then
                                    Cert.record_refuted Cert.Branch
                                      (Clause.snapshot cl)
                                end;
                                keep)
                              branches
                          else branches
                        in
                        List.iter (reduce (steps + 1)) branches
                    | None ->
                        (* no constrained wildcards remain *)
                        Obs.Metrics.observe m_project_depth steps;
                        out := { c with wilds = V.Set.empty } :: !out
                  end
              end
          end
      end
  in
  reduce 0 c;
  List.rev !out

let project mode vars (c : Clause.t) : Clause.t list =
  if Obs.Trace.enabled () then
    Obs.Trace.span "solve.project"
      ~attrs:(fun () ->
        [
          ("vars", Obs.Trace.Int (List.length vars));
          ("mode", Obs.Trace.Str (mode_name mode));
          ("constraints", Obs.Trace.Int (Clause.size c));
        ])
      (fun () ->
        let r = project_core mode vars c in
        Obs.Trace.add_attr "clauses_out" (Obs.Trace.Int (List.length r));
        r)
  else project_core mode vars c

module FeasTbl = Memo.Lru (Memo.Fkey)

let feas_cache : bool FeasTbl.t = FeasTbl.create 32768

(* The recursion itself is memoized (not just the entry point), so shared
   subproblems across queries — e.g. the pairwise overlap tests of
   [Disjoint] or the entailment checks of [Gist] — reuse each other's
   intermediate results. *)
let rec feasible steps (c : Clause.t) =
  Obs.Budget.charge 1;
  if steps > max_reduction_steps then
    Error.fail ~phase:"solve.is_feasible"
      ~context:[ ("steps", string_of_int steps) ]
      "did not terminate";
  let mc = Memo.local () in
  mc.feas_queries <- mc.feas_queries + 1;
  if not (Memo.enabled ()) then feasible_body steps c
  else begin
    let key = Memo.feas_key c in
    match FeasTbl.find_opt feas_cache key with
    | Some v ->
        mc.feas_hits <- mc.feas_hits + 1;
        v
    | None ->
        let v = feasible_body steps c in
        FeasTbl.add feas_cache key v;
        v
  end

and feasible_body steps (c : Clause.t) =
  match Clause.normalize c with
  | None -> false
  | Some c ->
      (* All variables are treated as existentially quantified. *)
      let all = Clause.all_vars c in
      if V.Set.is_empty all then true
      else begin
        let c = { c with wilds = all } in
        let c = Clause.solve_unit_wilds c in
        match Clause.normalize c with
        | None -> false
        | Some c ->
            let all = Clause.all_vars c in
            if V.Set.is_empty all then true
            else begin
              let c = { c with wilds = all } in
              let in_eqs, in_strides, _ = wild_occurrences c in
              match List.find_opt in_eqs (V.Set.elements c.wilds) with
              | Some w -> feasible (steps + 1) (eliminate_via_eq w c)
              | None ->
                  if V.Set.exists in_strides c.wilds then
                    feasible (steps + 1) (Clause.strides_to_eqs c)
                  else begin
                    (* inequalities only: pick the cheapest variable *)
                    let w, _ =
                      V.Set.fold
                        (fun w best ->
                          let lowers, uppers, _ = bounds w c.geqs in
                          let cost = List.length lowers * List.length uppers in
                          match best with
                          | Some (_, c0) when c0 <= cost -> best
                          | _ -> Some (w, cost))
                        c.wilds None
                      |> Option.get
                    in
                    List.exists (feasible (steps + 1))
                      (eliminate Exact_overlapping w c)
                  end
            end
      end

let is_feasible c = feasible 0 c

let feasible_conjoin c1 c2 =
  is_feasible (Clause.conjoin c1 (Clause.rename_wilds c2))
