(* Bounded feasibility pre-filter — see prefilter.mli. *)

module V = Presburger.Var
module A = Presburger.Affine

type verdict = Feasible | Refuted | Unknown

let verdict_name = function
  | Feasible -> "feasible"
  | Refuted -> "refuted"
  | Unknown -> "unknown"

(* Armed by default. Domain-local, like [Obs.Budget.current], because
   [Dnf] disarms it for negated subtrees: pool worker domains observe
   the submitting task's arming through the [Obs.Ambient] capture in
   [Pool.spawn], and a disarmed subtree on one domain never disarms a
   concurrent request on another (such as another omegad handler,
   each of which runs its request serially). *)
let armed_flag : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref true)
let armed () = !(Domain.DLS.get armed_flag)

let with_armed b f =
  let cell = Domain.DLS.get armed_flag in
  let saved = !cell in
  cell := b;
  Fun.protect ~finally:(fun () -> cell := saved) f

let () =
  Obs.Ambient.register (fun () ->
      let captured = armed () in
      {
        Obs.Ambient.run =
          (fun f ->
            let cell = Domain.DLS.get armed_flag in
            let saved = !cell in
            cell := captured;
            Fun.protect ~finally:(fun () -> cell := saved) f);
      })

let m_probes = Obs.Metrics.counter "planner.probes"
let m_refuted = Obs.Metrics.counter "planner.probe_refuted"
let m_witness = Obs.Metrics.counter "planner.probe_witness"
let m_unknown = Obs.Metrics.counter "planner.probe_unknown"

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)

type interval = { lo : Zint.t option; hi : Zint.t option }

let top = { lo = None; hi = None }

let interval_empty iv =
  match (iv.lo, iv.hi) with
  | Some lo, Some hi -> Zint.compare lo hi > 0
  | _ -> false

let bound_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Zint.equal x y
  | _ -> false

let interval_equal a b = bound_equal a.lo b.lo && bound_equal a.hi b.hi

(* max of lower bounds / min of upper bounds ([None] = infinite). *)
let tighten_lo iv lo' =
  match (iv.lo, lo') with
  | None, l | l, None -> { iv with lo = l }
  | Some a, Some b -> { iv with lo = Some (Zint.max a b) }

let tighten_hi iv hi' =
  match (iv.hi, hi') with
  | None, h | h, None -> { iv with hi = h }
  | Some a, Some b -> { iv with hi = Some (Zint.min a b) }

type env = { box : interval V.Map.t; empty : bool }

let find_iv box v = match V.Map.find_opt v box with Some iv -> iv | None -> top

(* The termwise upper end of [e] under [box] as (number of infinite
   contributions, sum of the finite ones including the constant), plus
   the per-term contributions so a caller can subtract one term out. *)
let upper_parts box e =
  let terms = ref [] in
  let inf = ref 0 in
  let sum = ref (A.constant e) in
  A.fold
    (fun v c () ->
      let iv = find_iv box v in
      let contrib =
        if Zint.sign c > 0 then Option.map (Zint.mul c) iv.hi
        else Option.map (Zint.mul c) iv.lo
      in
      (match contrib with
      | Some x -> sum := Zint.add !sum x
      | None -> incr inf);
      terms := (v, c, contrib) :: !terms)
    e ();
  (!inf, !sum, !terms)

(* Upper end of [e] minus the contribution of one recorded term. *)
let upper_without inf sum contrib =
  match contrib with
  | Some x -> if inf = 0 then Some (Zint.sub sum x) else None
  | None -> if inf = 1 then Some sum else None

let affine_hi box e =
  let inf, sum, _ = upper_parts box e in
  if inf = 0 then Some sum else None

let affine_interval_box box e =
  let hi = affine_hi box e in
  let lo = Option.map Zint.neg (affine_hi box (A.neg e)) in
  { lo; hi }

let affine_interval env e =
  if env.empty then { lo = Some Zint.one; hi = Some Zint.zero }
  else affine_interval_box env.box e

(* ------------------------------------------------------------------ *)
(* Interval propagation                                                *)

let max_rounds = 4

(* One directed pass over [e >= 0]: each variable's bound is refined
   from the upper end of the rest of the constraint
   (c·v >= -(e - c·v)), in both orientations via the caller passing
   [e] and [neg e] for equalities. *)
let propagate_geq box changed e =
  let inf, sum, terms = upper_parts box e in
  List.fold_left
    (fun box (v, c, contrib) ->
      match upper_without inf sum contrib with
      | None -> box
      | Some rest_hi ->
          let iv = find_iv box v in
          let iv' =
            if Zint.sign c > 0 then
              (* c·v >= -rest_hi  =>  v >= ceil(-rest_hi / c) *)
              tighten_lo iv (Some (Zint.cdiv (Zint.neg rest_hi) c))
            else
              (* (-c)·v <= rest_hi  =>  v <= floor(rest_hi / -c) *)
              tighten_hi iv (Some (Zint.fdiv rest_hi (Zint.neg c)))
          in
          if not (interval_equal iv' iv) then begin
            changed := true;
            V.Map.add v iv' box
          end
          else box)
    box terms

let env_of_clause (c : Clause.t) : env =
  let geqs =
    c.geqs @ c.eqs @ List.map A.neg c.eqs
    (* an equality contributes both orientations *)
  in
  let box = ref V.Map.empty in
  let round = ref 0 in
  let continue_ = ref true in
  while !continue_ && !round < max_rounds do
    incr round;
    let changed = ref false in
    List.iter (fun e -> box := propagate_geq !box changed e) geqs;
    continue_ := !changed
  done;
  let box = !box in
  let empty = V.Map.exists (fun _ iv -> interval_empty iv) box in
  { box; empty }

(* ------------------------------------------------------------------ *)
(* Refutation and box probing                                          *)

(* Is there a multiple of [m] in [lo, hi]? *)
let stride_possible m iv =
  match (iv.lo, iv.hi) with
  | Some lo, Some hi -> Zint.compare (Zint.cdiv lo m) (Zint.fdiv hi m) <= 0
  | _ -> true

let interval_refutes env (c : Clause.t) =
  env.empty
  || List.exists
       (fun e ->
         match (affine_interval env e).hi with
         | Some hi -> Zint.sign hi < 0
         | None -> false)
       c.geqs
  || List.exists
       (fun e ->
         let iv = affine_interval env e in
         (match iv.hi with Some hi -> Zint.sign hi < 0 | None -> false)
         || (match iv.lo with Some lo -> Zint.sign lo > 0 | None -> false))
       c.eqs
  || List.exists
       (fun (m, e) -> not (stride_possible m (affine_interval env e)))
       c.strides

(* Complete enumeration cap: boxes beyond this many points are not
   searched ([Unknown] instead). Small by design — the pre-filter must
   stay cheap next to one exact elimination. *)
let box_cap = 256

(* Fuel granularity of the enumeration (points per budget unit). *)
let charge_chunk = 64

let satisfies (c : Clause.t) lookup =
  List.for_all (fun e -> Zint.is_zero (A.eval lookup e)) c.eqs
  && List.for_all (fun e -> Zint.sign (A.eval lookup e) >= 0) c.geqs
  && List.for_all (fun (m, e) -> Zint.divides m (A.eval lookup e)) c.strides

(* Enumerate the box when it is finite and small. [Some true] = witness
   found, [Some false] = exhausted without witness (a proof of
   infeasibility: the box contains every solution), [None] = too big. *)
let box_probe env (c : Clause.t) =
  let vars = V.Set.elements (Clause.all_vars c) in
  let bounds =
    List.map
      (fun v ->
        let iv = find_iv env.box v in
        match (iv.lo, iv.hi) with
        | Some lo, Some hi -> Some (v, lo, hi)
        | _ -> None)
      vars
  in
  if List.exists Option.is_none bounds then None
  else begin
    let bounds = List.filter_map Fun.id bounds in
    let points =
      List.fold_left
        (fun acc (_, lo, hi) ->
          match acc with
          | None -> None
          | Some n ->
              let w = Zint.succ (Zint.sub hi lo) in
              let n' = Zint.mul n w in
              if Zint.compare n' (Zint.of_int box_cap) > 0 then None
              else Some n')
        (Some Zint.one) bounds
    in
    match points with
    | None -> None
    | Some _ ->
        let visited = ref 0 in
        let rec go assign = function
          | [] ->
              incr visited;
              if !visited mod charge_chunk = 0 then Obs.Budget.charge 1;
              let lookup v = V.Map.find v assign in
              satisfies c lookup
          | (v, lo, hi) :: rest ->
              let rec scan x =
                if Zint.compare x hi > 0 then false
                else
                  go (V.Map.add v x assign) rest || scan (Zint.succ x)
              in
              scan lo
        in
        Some (go V.Map.empty bounds)
  end

let probe (c : Clause.t) : verdict =
  Obs.Budget.charge 1;
  Obs.Metrics.incr m_probes;
  let verdict =
    match Clause.normalize c with
    | None -> Refuted
    | Some c ->
        if V.Set.is_empty (Clause.all_vars c) then
          (* normalize validated every (constant) constraint *)
          Feasible
        else begin
          let env = env_of_clause c in
          if interval_refutes env c then Refuted
          else
            match box_probe env c with
            | Some true -> Feasible
            | Some false -> Refuted
            | None -> Unknown
        end
  in
  (match verdict with
  | Refuted ->
      Obs.Metrics.incr m_refuted;
      if Obs.Trace.enabled () then
        Obs.Trace.instant "planner.refute"
          ~attrs:(fun () -> [ ("size", Obs.Trace.Int (Clause.size c)) ])
  | Feasible -> Obs.Metrics.incr m_witness
  | Unknown -> Obs.Metrics.incr m_unknown);
  verdict
