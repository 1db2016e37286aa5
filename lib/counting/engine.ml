module V = Presburger.Var
module A = Presburger.Affine
module F = Presburger.Formula
module C = Omega.Clause

type strategy = Exact | Upper | Lower | Symbolic
type backend = Pugh | Gf | Auto

type options = {
  strategy : strategy;
  backend : backend;
  flexible_order : bool;
  eliminate_redundant : bool;
  guard_empty : bool;
  disjoint : bool;
}

let default =
  {
    strategy = Exact;
    backend = Auto;
    flexible_order = true;
    eliminate_redundant = true;
    guard_empty = true;
    disjoint = true;
  }

type stats = {
  mutable dnf_clauses : int;
  mutable bound_splits : int;
  mutable residue_splinters : int;
  mutable pieces : int;
}

let new_stats () =
  { dnf_clauses = 0; bound_splits = 0; residue_splinters = 0; pieces = 0 }

let strategy_name = function
  | Exact -> "exact"
  | Upper -> "upper"
  | Lower -> "lower"
  | Symbolic -> "symbolic"

let backend_name = function Pugh -> "pugh" | Gf -> "gf" | Auto -> "auto"

let opts_fields o =
  [
    ("strategy", strategy_name o.strategy);
    ("backend", backend_name o.backend);
    ("flexible_order", string_of_bool o.flexible_order);
    ("eliminate_redundant", string_of_bool o.eliminate_redundant);
    ("guard_empty", string_of_bool o.guard_empty);
    ("disjoint", string_of_bool o.disjoint);
  ]

(* Distribution metrics (always-on array increments; the trace events next
   to them are gated on [Obs.Trace.enabled]). *)
let m_dnf_clauses =
  Obs.Metrics.histogram "engine.dnf_clauses"
    ~buckets:[| 1; 2; 4; 8; 16; 32; 64; 128 |]

let m_clause_us =
  Obs.Metrics.histogram "engine.clause_us"
    ~buckets:[| 10; 100; 1_000; 10_000; 100_000; 1_000_000 |]

let m_splinter_fanout =
  Obs.Metrics.histogram "engine.splinter_fanout"
    ~buckets:[| 1; 2; 4; 8; 16; 32; 64 |]

let m_piece_depth =
  Obs.Metrics.histogram "engine.piece_depth"
    ~buckets:[| 1; 2; 4; 8; 16; 32; 64 |]

exception Unbounded of string

(* The sum-var cell is atomic so concurrent domains sharing the default
   cell never mint the same name, and swappable per domain (like
   [Var]'s wild counter) so a long-running server can renumber from
   %w000001 for every request. The name is zero-padded because [Named]
   variables compare lexicographically: without padding, "%w10" < "%w9"
   would make the relative order of two fresh variables depend on the
   absolute counter values — which differ between a fresh request and a
   process that has counted before — and the engine's variable ordering
   would diverge. Padded names order by creation time at any counter
   offset. *)
let default_sum_var_counter = Atomic.make 0

let sum_var_cell : int Atomic.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref default_sum_var_counter)

let current_sum_var_counter () = !(Domain.DLS.get sum_var_cell)
let install_sum_var_counter c = Domain.DLS.get sum_var_cell := c

let fresh_sum_var () =
  V.named
    (Printf.sprintf "%%w%06d"
       (1 + Atomic.fetch_and_add (current_sum_var_counter ()) 1))

let reset_fresh_sum_var () = Atomic.set (current_sum_var_counter ()) 0

let max_steps = 20_000

(* v = -rest/k as a rational affine form over variable names. *)
let solution_lin k rest =
  Qpoly.Lin.scale (Qnum.make Zint.minus_one k) (A.to_qlin rest)

let qpoly_of_aff e = Qpoly.of_lin (A.to_qlin e)

(* Quasi-polynomial for (e mod m), collapsing to a constant when it does. *)
let qpoly_mod lin m =
  match Qpoly.Atom.modulo lin m with
  | `Atom a -> Qpoly.atom a
  | `Const z -> Qpoly.const (Qnum.of_zint z)

let small_int z ctx =
  match Zint.to_int z with
  | Some n when n <= 1_000_000 -> n
  | _ ->
      Omega.Error.fail ~phase:"engine.splinter"
        ~context:[ ("where", ctx); ("coefficient", Zint.to_string z) ]
        "coefficient too large to splinter"

(* Find an equality containing a summation variable; pick the variable
   with the smallest |coefficient| for the gentlest rescaling. *)
let find_eq_sumvar vars (c : C.t) =
  List.fold_left
    (fun best e ->
      List.fold_left
        (fun best v ->
          if List.exists (V.equal v) vars then begin
            let k = Zint.abs (A.coeff e v) in
            match best with
            | Some (_, _, k0) when Zint.compare k0 k <= 0 -> best
            | _ -> Some (e, v, k)
          end
          else best)
        best (A.vars e))
    None c.eqs

let find_stride_sumvar vars (c : C.t) =
  List.find_map
    (fun (m, e) ->
      List.find_map
        (fun v ->
          if List.exists (V.equal v) vars then Some (m, e, v) else None)
        (A.vars e))
    c.strides

(* Bounds of v among inequalities, keeping the original affine forms so
   clauses can be rebuilt exactly:
   lower (b, β):  β ≤ b·v ;   upper (a, α):  a·v ≤ α. *)
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

let lower_geq v (b, beta) = A.sub (A.scale b (A.var v)) beta
let upper_geq v (a, alpha) = A.sub alpha (A.scale a (A.var v))

let remove_var vars v = List.filter (fun u -> not (V.equal u v)) vars

(* [branches n case] evaluates [case 0 … case (n-1)] and concatenates
   the results in branch index order. *)
let branches n case = Merge.combine (List.init n case)

(* [ord] is the planner's adaptive-order flag for this clause's subtree:
   set only inside the collapse-safe zone (see [Planner.plan_clause]),
   where every elimination-order choice is rendering-invariant. *)
let rec go opts ord stats vars poly (clause : C.t) fuel : Value.t =
  (* One budget unit per engine reduction step; with the per-elimination
     charges in [Solve] this makes every loop of the counting recursion
     fuel-accounted and deadline-polled. *)
  Obs.Budget.charge 1;
  if fuel > max_steps then
    Omega.Error.fail ~phase:"engine.sum"
      ~context:[ ("steps", string_of_int fuel) ]
      "reduction did not terminate";
  if Qpoly.is_zero poly then []
  else
    match C.normalize clause with
    | None ->
        if Cert.armed () then Cert.record_refuted Cert.Subtree (C.snapshot clause);
        []
    | Some clause -> begin
        match find_eq_sumvar vars clause with
        | Some (e, v, _) ->
            let k = A.coeff e v in
            let rest = A.sub e (A.term k v) in
            let poly' = Qpoly.subst_lin poly (V.to_string v) (solution_lin k rest) in
            let clause' =
              Omega.Solve.eliminate_via_eq v
                { clause with wilds = V.Set.add v clause.wilds }
            in
            go opts ord stats (remove_var vars v) poly' clause' (fuel + 1)
        | None -> begin
            match find_stride_sumvar vars clause with
            | Some (m, e, _v) ->
                (* Σ_v [m | e(v)] f(v)  =  Σ_w [e(v) = m·w] f(v): a 1-1
                   change of variable; the equality is then handled by the
                   case above (in the next iteration). *)
                let w = fresh_sum_var () in
                let strides' =
                  List.filter
                    (fun (m', e') ->
                      not (Zint.equal m m' && A.equal e e'))
                    clause.strides
                in
                let eq = A.sub e (A.scale m (A.var w)) in
                let clause' =
                  { clause with strides = strides'; eqs = eq :: clause.eqs }
                in
                go opts ord stats (w :: vars) poly clause' (fuel + 1)
            | None -> convex opts ord stats vars poly clause fuel
          end
      end

and convex opts ord stats vars poly clause fuel : Value.t =
  let clause =
    if opts.eliminate_redundant then
      match Omega.Gist.remove_redundant clause with
      | Some c -> c
      | None -> { clause with geqs = A.of_int (-1) :: clause.geqs }
      (* infeasible: normalize in the recursion will drop it *)
    else clause
  in
  match vars with
  | [] ->
      stats.pieces <- stats.pieces + 1;
      Obs.Metrics.observe m_piece_depth fuel;
      Value.piece clause poly
  | _ -> begin
      (* Variable choice (Section 4.4 step 2): prefer variables with few
         bounds and unit coefficients; fixed order takes the innermost
         (last) variable, as in Tawbi's algorithm. *)
      let v =
        if not opts.flexible_order then List.nth vars (List.length vars - 1)
        else if ord then
          (* Planner cost model: breaks the static score's bound-pair
             ties toward the cheaper predicted splinter. Pure in the
             clause; only reached in the collapse-safe zone where order
             is rendering-invariant. *)
          Planner.pick_var clause vars
        else begin
          let score v =
            let lowers, uppers, _ = bounds v clause.geqs in
            let nonunit =
              List.exists (fun (c, _) -> not (Zint.is_one c)) lowers
              || List.exists (fun (c, _) -> not (Zint.is_one c)) uppers
            in
            ( List.length lowers * List.length uppers,
              (if nonunit then 1 else 0) )
          in
          List.fold_left
            (fun (bv, bs) v ->
              let s = score v in
              if compare s bs < 0 then (v, s) else (bv, bs))
            (List.hd vars, score (List.hd vars))
            (List.tl vars)
          |> fst
        end
      in
      let lowers, uppers, rest = bounds v clause.geqs in
      if lowers = [] || uppers = [] then
        raise
          (Unbounded
             (Printf.sprintf "variable %s has no %s bound" (V.to_string v)
                (if lowers = [] then "lower" else "upper")));
      let split_cases chosen_bounds rebuild =
        (* Disjoint split over which bound is the binding one (Sec 4.4
           step 3): case t keeps bound t with  bound_t ≤ bound_j (j > t)
           and bound_t < bound_j (j < t), comparisons cross-multiplied. *)
        let arr = Array.of_list chosen_bounds in
        let n = Array.length arr in
        Obs.Budget.check_fanout n;
        stats.bound_splits <- stats.bound_splits + n - 1;
        branches n (fun t ->
            let guards = ref [] in
            for j = 0 to n - 1 do
              if j <> t then begin
                let ct, et = arr.(t) and cj, ej = arr.(j) in
                (* et/ct vs ej/cj  ⇒  cj·et vs ct·ej *)
                let diff = A.sub (A.scale ct ej) (A.scale cj et) in
                let g = if j < t then A.add_const diff Zint.minus_one else diff in
                guards := g :: !guards
              end
            done;
            let clause' = rebuild arr.(t) !guards in
            go opts ord stats vars poly clause' (fuel + 1))
      in
      if List.length uppers > 1 then
        split_cases uppers (fun u guards ->
            {
              clause with
              geqs =
                (upper_geq v u :: List.map (lower_geq v) lowers)
                @ guards @ rest;
            })
      else if List.length lowers > 1 then begin
        (* For lower bounds the binding one is the MAXIMUM: case t keeps
           bound_t ≥ others. Reuse split_cases with reversed comparison by
           negating the affine forms' roles. *)
        let arr = Array.of_list lowers in
        let n = Array.length arr in
        Obs.Budget.check_fanout n;
        stats.bound_splits <- stats.bound_splits + n - 1;
        branches n (fun t ->
            let guards = ref [] in
            for j = 0 to n - 1 do
              if j <> t then begin
                let ct, et = arr.(t) and cj, ej = arr.(j) in
                (* binding lower: et/ct >= ej/cj ⇒ cj·et − ct·ej ≥ 0 *)
                let diff = A.sub (A.scale cj et) (A.scale ct ej) in
                let g = if j < t then A.add_const diff Zint.minus_one else diff in
                guards := g :: !guards
              end
            done;
            let clause' =
              {
                clause with
                geqs =
                  (lower_geq v arr.(t)
                  :: List.map (upper_geq v) uppers)
                  @ !guards @ rest;
              }
            in
            go opts ord stats vars poly clause' (fuel + 1))
      end
      else begin
        let [@warning "-8"] [ (b, beta) ] = lowers
        and [@warning "-8"] [ (a, alpha) ] = uppers in
        single_pair opts ord stats vars poly clause fuel v ~rest (b, beta)
          (a, alpha)
      end
    end

(* Sum over v with a single lower bound β ≤ b·v and upper a·v ≤ α. *)
and single_pair opts ord stats vars poly clause fuel v ~rest (b, beta)
    (a, alpha) : Value.t =
  let vname = V.to_string v in
  let vars' = remove_var vars v in
  let base_clause = { clause with geqs = rest } in
  let recurse inner clause' =
    go opts ord stats vars' inner clause' (fuel + 1)
  in
  let unit_case () =
    (* a = b = 1: exact closed form, guard β ≤ α. *)
    let inner =
      Qpoly.sum_over poly vname (qpoly_of_aff beta) (qpoly_of_aff alpha)
    in
    let guard = A.sub alpha beta in
    let clause' =
      if opts.guard_empty then
        { base_clause with geqs = guard :: base_clause.geqs }
      else base_clause
    in
    recurse inner clause'
  in
  if Zint.is_one a && Zint.is_one b then unit_case ()
  else begin
    (* A bound over symbolic constants only: no remaining summation
       variable and no wildcard. *)
    let params_only e =
      List.for_all
        (fun u ->
          not (List.exists (V.equal u) vars' || V.Set.mem u clause.wilds))
        (A.vars e)
    in
    let floor_sum () =
      (* ⌈β/b⌉ = (β + (−β mod b))/b ; ⌊α/a⌋ = (α − (α mod a))/a.
         Guard: real shadow b·α − a·β ≥ 0 (Sec 4.2.2). The guard gives
         α/a ≥ β/b, hence ⌊α/a⌋ > β/b − 1 > ⌈β/b⌉ − 2, i.e.
         ⌊α/a⌋ ≥ ⌈β/b⌉ − 1: the closed form F(⌊α/a⌋) − F(⌈β/b⌉ − 1) is
         exactly 0 on an empty range, so the sum is exact. *)
      let inv x = Qnum.make Zint.one x in
      let lo =
        Qpoly.scale (inv b)
          (Qpoly.add (qpoly_of_aff beta)
             (qpoly_mod (A.to_qlin (A.neg beta)) b))
      in
      let hi =
        Qpoly.scale (inv a)
          (Qpoly.sub (qpoly_of_aff alpha) (qpoly_mod (A.to_qlin alpha) a))
      in
      let inner = Qpoly.sum_over poly vname lo hi in
      let guard = A.sub (A.scale b alpha) (A.scale a beta) in
      let clause' =
        if opts.guard_empty then
          { base_clause with geqs = guard :: base_clause.geqs }
        else base_clause
      in
      recurse inner clause'
    in
    let floor_ok = params_only beta && params_only alpha in
    match opts.strategy with
    | Symbolic when floor_ok -> floor_sum ()
    (* Exact: splinter while [Merge.merge_residues] can fold the a·b
       residue pieces back; past that, the floor form. *)
    | Exact
      when floor_ok
           && Zint.compare (Zint.mul a b) (Zint.of_int Merge.max_period) > 0
      ->
        floor_sum ()
    | Upper | Lower ->
        (* Rational relaxation / tightening of the bounds (Sec 4.2.1).
           Valid as an upper (resp. lower) bound for nonnegative
           summands. *)
        let inv x = Qnum.make Zint.one x in
        let lo, hi, guard =
          match opts.strategy with
          | Upper ->
              ( Qpoly.scale (inv b) (qpoly_of_aff beta),
                Qpoly.scale (inv a) (qpoly_of_aff alpha),
                A.sub (A.scale b alpha) (A.scale a beta) )
          | _ ->
              ( Qpoly.scale (inv b)
                  (qpoly_of_aff (A.add_const beta (Zint.pred b))),
                Qpoly.scale (inv a)
                  (qpoly_of_aff (A.add_const alpha (Zint.succ (Zint.neg a)))),
                A.sub
                  (A.scale b (A.add_const alpha (Zint.succ (Zint.neg a))))
                  (A.scale a (A.add_const beta (Zint.pred b))) )
        in
        let inner = Qpoly.sum_over poly vname lo hi in
        let clause' =
          if opts.guard_empty then
            { base_clause with geqs = guard :: base_clause.geqs }
          else base_clause
        in
        recurse inner clause'
    | _ ->
        (* Exact splintering by residue classes (Sec 4.2.1): case on
           β mod b and α mod a; within a case both bounds are integral. *)
        let bi = small_int b "lower bound splinter"
        and ai = small_int a "upper bound splinter" in
        Obs.Budget.check_fanout (ai * bi);
        stats.residue_splinters <- stats.residue_splinters + (ai * bi) - 1;
        Obs.Metrics.observe m_splinter_fanout (ai * bi);
        if Obs.Trace.enabled () then
          Obs.Trace.instant "splinter"
            ~attrs:(fun () ->
              [
                ("where", Obs.Trace.Str "engine.residue");
                ("var", Obs.Trace.Str vname);
                ("lower_mod", Obs.Trace.Int bi);
                ("upper_mod", Obs.Trace.Int ai);
                ("fan_out", Obs.Trace.Int (ai * bi));
              ]);
        (* Branch t covers residue pair (rb, ra) = (t / ai, t mod ai):
           rb outer, ra inner. *)
        branches (ai * bi) (fun t ->
            let rb = t / ai and ra = t mod ai in
            begin
                let zrb = Zint.of_int rb and zra = Zint.of_int ra in
                let delta = if rb > 0 then Zint.one else Zint.zero in
                (* L = (β − rb)/b + δ ; U = (α − ra)/a *)
                let inv x = Qnum.make Zint.one x in
                let lo =
                  Qpoly.add
                    (Qpoly.scale (inv b)
                       (qpoly_of_aff (A.add_const beta (Zint.neg zrb))))
                    (Qpoly.const (Qnum.of_zint delta))
                in
                let hi =
                  Qpoly.scale (inv a)
                    (qpoly_of_aff (A.add_const alpha (Zint.neg zra)))
                in
                let inner = Qpoly.sum_over poly vname lo hi in
                (* guard (L ≤ U) × ab:
                   b(α − ra) − a(β − rb) − ab·δ ≥ 0 *)
                let guard =
                  A.add_const
                    (A.sub
                       (A.scale b (A.add_const alpha (Zint.neg zra)))
                       (A.scale a (A.add_const beta (Zint.neg zrb))))
                    (Zint.neg (Zint.mul (Zint.mul a b) delta))
                in
                let strides =
                  (if bi > 1 then [ (b, A.add_const beta (Zint.neg zrb)) ]
                   else [])
                  @ (if ai > 1 then [ (a, A.add_const alpha (Zint.neg zra)) ]
                     else [])
                in
                let clause' =
                  {
                    base_clause with
                    geqs =
                      (if opts.guard_empty then guard :: base_clause.geqs
                       else base_clause.geqs);
                    strides = strides @ base_clause.strides;
                  }
                in
                go opts ord stats vars' inner clause' (fuel + 1)
            end)
  end

(* Ambient stats installed by [with_instr], so instrumented runs see
   engine counts without threading a [stats] through every caller.
   Domain-local: concurrent counts on other domains never share the
   instrumented domain's record. *)
let ambient_stats_key : stats option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let ambient_stats () = Domain.DLS.get ambient_stats_key

let resolve_stats = function
  | Some s -> s
  | None -> (
      match !(ambient_stats ()) with Some s -> s | None -> new_stats ())

(* ------------------------------------------------------------------ *)
(* Backend dispatch (per disjoint clause). The generating-function
   backend applies only to Exact-strategy, constant-summand, fully
   concrete clauses; everything it cannot handle falls back to the Pugh
   recursion — including unbounded regions, which then raise [Unbounded]
   exactly as before. A clause counted by gfcount yields a single
   top-guarded constant piece; the Pugh pieces of such a clause collapse
   to the same thing in [Value.simplify], so the two backends are
   byte-identical after rendering. *)

let m_gf_clauses = Obs.Metrics.counter "engine.gf_clauses"
let m_gf_fallback = Obs.Metrics.counter "engine.gf_fallback"

(* The per-clause plan: a pure function of the clause, so routing and
   elimination order never depend on what ran before. *)
let clause_plan opts vs poly c =
  Planner.plan_clause
    ~exact:(opts.strategy = Exact)
    ~const_poly:(Option.is_some (Qpoly.to_const poly))
    ~vars:vs c

(* [Auto] routes by the planner's [use_gf] (collapse-safe zone, predicted
   splinter fan-out ≥ 2); [Pugh] and [Gf] force one oracle. *)
let use_gf opts (d : Planner.decision) =
  match opts.backend with
  | Pugh -> false
  | Gf -> opts.strategy = Exact
  | Auto -> d.use_gf

let run_clause opts (d : Planner.decision) stats vs poly c =
  if d.adaptive_order then Planner.note_adaptive ();
  let fallback () = go opts d.adaptive_order stats vs poly c 0 in
  if use_gf opts d then begin
    match Qpoly.to_const poly with
    | Some k -> begin
        match Gfcount.count_clause ~vars:vs c with
        | Some n ->
            Obs.Metrics.incr m_gf_clauses;
            if Cert.armed () then
              Cert.record_gf
                ~vars:(List.map V.to_string vs)
                ~clause:(C.snapshot c) ~count:n;
            let r =
              Value.piece C.top (Qpoly.const (Qnum.mul k (Qnum.of_zint n)))
            in
            stats.pieces <- stats.pieces + List.length r;
            r
        | None ->
            Obs.Metrics.incr m_gf_fallback;
            fallback ()
      end
    | None -> fallback ()
  end
  else fallback ()

(* The routing choice as a report-card label. Recomputed by Telemetry
   after the answer run (the plan is pure in the clause), so building a
   report card never touches the answer path. *)
let route_clause ?(opts = default) ~vars poly c =
  let vs = List.map V.named vars in
  if use_gf opts (clause_plan opts vs poly c) then "gf" else "pugh"

let absorb_stats into s =
  into.dnf_clauses <- into.dnf_clauses + s.dnf_clauses;
  into.bound_splits <- into.bound_splits + s.bound_splits;
  into.residue_splinters <- into.residue_splinters + s.residue_splinters;
  into.pieces <- into.pieces + s.pieces

(* One traced span per disjunct, with per-clause wall time fed to the
   clause_us histogram. *)
let clause_task opts vs poly (i, c, d) =
  Obs.Trace.span "clause"
    ~attrs:(fun () ->
      [
        ("index", Obs.Trace.Int i);
        ("constraints", Obs.Trace.Int (Omega.Clause.size c));
        ("vars", Obs.Trace.Int (List.length vs));
      ])
    (fun () ->
      let st = new_stats () in
      let t0 = Unix.gettimeofday () in
      let r = run_clause opts d st vs poly c in
      let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
      Obs.Metrics.observe m_clause_us us;
      Obs.Trace.add_attr "pieces" (Obs.Trace.Int (List.length r));
      (r, st))

(* The clause loop: each disjunct planned once and summed on its own,
   its outcome captured — [Ok] pieces, or [Error] with the backtrace
   where it raised — so the governor can assemble a partial answer
   around a clause that ran out of budget. A clause's counts join
   [stats] only when it completes. *)
let clause_sums ?(opts = default) ?stats ~vars cls poly =
  let stats = resolve_stats stats in
  let vs = List.map V.named vars in
  stats.dnf_clauses <- stats.dnf_clauses + List.length cls;
  Obs.Metrics.observe m_dnf_clauses (List.length cls);
  let planned = List.mapi (fun i c -> (i, c, clause_plan opts vs poly c)) cls in
  Instr.time_phase "sum" (fun () ->
      List.map
        (fun task ->
          match clause_task opts vs poly task with
          | r, st ->
              absorb_stats stats st;
              Ok r
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        planned)

let simplify_clauses vals =
  Instr.time_phase "simplify" (fun () -> Value.simplify (Merge.combine vals))

let sum_clauses ?opts ?stats ~vars cls poly =
  clause_sums ?opts ?stats ~vars cls poly
  |> List.map (function
       | Ok r -> r
       | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
  |> simplify_clauses

let to_clauses ?(opts = default) f =
  (* Section 4.6: when only bounds are wanted, the Omega test may
     simplify approximately — project quantified variables onto the real
     (over-approximate) or dark (under-approximate) shadow instead of
     splintering. Disjointness is still enforced so no overlap inflates
     a lower bound. *)
  Instr.time_phase "dnf" (fun () ->
      match opts.strategy with
      | Upper ->
          Omega.Disjoint.to_disjoint
            (Omega.Dnf.of_formula ~mode:Omega.Solve.Approx_real f)
      | Lower ->
          Omega.Disjoint.to_disjoint
            (Omega.Dnf.of_formula ~mode:Omega.Solve.Approx_dark f)
      | Exact | Symbolic ->
          if opts.disjoint then Omega.Disjoint.of_formula f
          else Omega.Dnf.of_formula f)

let sum ?(opts = default) ?stats ~vars f poly =
  let cls = to_clauses ~opts f in
  sum_clauses ~opts ?stats ~vars cls poly

let count ?opts ?stats ~vars f = sum ?opts ?stats ~vars f Qpoly.one

let stats_fields s =
  [
    ("dnf_clauses", s.dnf_clauses);
    ("bound_splits", s.bound_splits);
    ("residue_splinters", s.residue_splinters);
    ("pieces", s.pieces);
  ]

let with_instr ?label ?(meta = []) f =
  let s = new_stats () in
  let cell = ambient_stats () in
  let saved = !cell in
  cell := Some s;
  Fun.protect
    ~finally:(fun () -> cell := saved)
    (fun () ->
      Instr.collect ?label ~options:meta
        ~counts:(fun () -> stats_fields s)
        f)

let brute_sum ~vars ~lo ~hi env f poly =
  let rec loop bound vars acc =
    match vars with
    | [] ->
        let env' name =
          match List.assoc_opt name bound with
          | Some z -> z
          | None -> env name
        in
        let var_env v = env' (V.to_string v) in
        if F.holds var_env f then Qnum.add acc (Qpoly.eval env' poly) else acc
    | v :: rest ->
        let acc = ref acc in
        for x = lo to hi do
          acc := loop ((v, Zint.of_int x) :: bound) rest !acc
        done;
        !acc
  in
  loop [] vars Qnum.zero
