(* Generating-function counting backend (Barvinok's algorithm, fixed
   dimension). Counts the integer points of a fully concrete clause by
   Brion's theorem: the generating function of a polytope is the sum over
   its vertices of the generating functions of the (shifted) tangent
   cones, each decomposed into signed unimodular cones, and the count is
   the specialization of that short rational function at z = 1.

   Decomposition happens in the dual space: the dual of a tangent cone is
   generated by the tight constraint rows, so no ray enumeration is
   needed, and lower-dimensional cones produced by triangulation or by
   vanishing coefficients in the Barvinok step can be discarded — they
   dualize back to cones containing lines, whose generating functions are
   identically zero. *)

module V = Presburger.Var
module A = Presburger.Affine
module C = Omega.Clause
module Mat = Ilinalg.Mat

(* Vertex enumeration scans r-subsets of constraint rows, so both caps
   are kept small; anything larger falls back to the Pugh engine. *)
let max_dim = 4
let max_rows = 16

let m_vertices =
  Obs.Metrics.histogram "gfcount.vertices" ~buckets:[| 1; 2; 4; 8; 16; 32 |]

let m_cones =
  Obs.Metrics.histogram "gfcount.cones"
    ~buckets:[| 1; 2; 4; 8; 16; 32; 64; 128 |]

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let qz = Qnum.of_zint

let zdot a b =
  let acc = ref Zint.zero in
  Array.iteri (fun i ai -> acc := Zint.add !acc (Zint.mul ai b.(i))) a;
  !acc

let qrow_dot (q : Qnum.t array) (z : Zint.t array) =
  let acc = ref Qnum.zero in
  Array.iteri (fun i qi -> acc := Qnum.add !acc (Qnum.mul qi (qz z.(i)))) q;
  !acc

(* All k-subsets of [0..m-1] as int arrays, lexicographic. *)
let subsets m k =
  let acc = ref [] in
  let rec go start chosen n =
    if n = 0 then acc := Array.of_list (List.rev chosen) :: !acc
    else
      for i = start to m - n do
        go (i + 1) (i :: chosen) (n - 1)
      done
  in
  go 0 [] k;
  List.rev !acc

(* An inequality a·y + c ≥ 0 over the free lattice coordinates. *)
type ineq = { a : Zint.t array; c : Zint.t }

let ineq_equal p q = Zint.equal p.c q.c && Array.for_all2 Zint.equal p.a q.a

(* gcd-reduce and integer-tighten a row; [None] drops a trivially true
   row, [Some (Error ())] reports a trivially false one. *)
let normalize_row { a; c } =
  let g = Array.fold_left Zint.gcd Zint.zero a in
  if Zint.is_zero g then if Zint.sign c >= 0 then None else Some (Error ())
  else if Zint.is_one g then Some (Ok { a; c })
  else
    Some
      (Ok { a = Array.map (fun x -> Zint.divexact x g) a; c = Zint.fdiv c g })

(* ------------------------------------------------------------------ *)
(* Cone contributions                                                  *)

(* One unimodular shifted cone: sign, apex lattice point w, generator
   rows g (a unimodular matrix). Its generating function is
   sign · z^w / Π_j (1 − z^{g_j}). *)
type ucone = { sign : int; w : Zint.t array; g : Zint.t array array }

(* Bernoulli numbers in the B⁻ convention (B⁻₁ = −1/2), matching the
   expansion u/(eᵘ−1) = Σ B⁻ₙ uⁿ/n!. [Qpoly.bernoulli] uses B⁺. *)
let bminus n =
  let b = Qpoly.bernoulli n in
  if n = 1 then Qnum.neg b else b

(* [t^r] of e^{at} · Π_j S(b_j t) with S(u) = u/(eᵘ−1), all series
   truncated at degree r. *)
let todd_coeff r a bs =
  let fact = Array.make (r + 1) Qnum.one in
  for k = 1 to r do
    fact.(k) <- Qnum.mul fact.(k - 1) (Qnum.of_int k)
  done;
  let exp_series =
    Array.init (r + 1) (fun k ->
        Qnum.div (qz (Zint.pow a k)) fact.(k))
  in
  let s_series b =
    Array.init (r + 1) (fun k ->
        Qnum.div (Qnum.mul (bminus k) (qz (Zint.pow b k))) fact.(k))
  in
  let mul_trunc p q =
    Array.init (r + 1) (fun k ->
        let acc = ref Qnum.zero in
        for i = 0 to k do
          acc := Qnum.add !acc (Qnum.mul p.(i) q.(k - i))
        done;
        !acc)
  in
  let prod = List.fold_left (fun acc b -> mul_trunc acc (s_series b)) exp_series bs in
  prod.(r)

(* Specialize Σ cones at z = 1: pick a generic direction
   c = (κ⁰, …, κ^{r−1}) with ⟨c, g⟩ ≠ 0 for every generator, substitute
   z = e^{tc}, and sum the constant Laurent coefficients. *)
let specialize r (cones : ucone list) : Qnum.t =
  let gens = List.concat_map (fun u -> Array.to_list u.g) cones in
  let rec find_kappa kappa =
    if kappa > 10_000 then
      invalid_arg "Gfcount.specialize: no generic direction found";
    let c = Array.init r (fun j -> Zint.pow (Zint.of_int kappa) j) in
    if List.for_all (fun g -> not (Zint.is_zero (zdot c g))) gens then c
    else find_kappa (kappa + 1)
  in
  let c = find_kappa 2 in
  let sign_r = if r land 1 = 0 then Qnum.one else Qnum.minus_one in
  List.fold_left
    (fun acc u ->
      let a = zdot c u.w in
      let bs = Array.to_list (Array.map (fun g -> zdot c g) u.g) in
      let denom = List.fold_left Zint.mul Zint.one bs in
      let contrib =
        Qnum.mul
          (Qnum.mul (Qnum.of_int u.sign) sign_r)
          (Qnum.div (todd_coeff r a bs) (qz denom))
      in
      Qnum.add acc contrib)
    Qnum.zero cones

(* ------------------------------------------------------------------ *)
(* Polytope counting                                                   *)

exception Inapplicable

(* Count integer points of {y ∈ Z^r : a·y + c ≥ 0 for each ineq}.
   Raises [Inapplicable] over the caps or when unbounded. *)
let rec count_polytope (ineqs : ineq list) (r : int) : Zint.t =
  Obs.Budget.charge 1;
  if r = 0 then
    if List.for_all (fun { c; _ } -> Zint.sign c >= 0) ineqs then Zint.one
    else Zint.zero
  else if r > max_dim then raise Inapplicable
  else begin
    let infeasible = ref false in
    let rows =
      List.filter_map
        (fun row ->
          match normalize_row row with
          | None -> None
          | Some (Error ()) ->
              infeasible := true;
              None
          | Some (Ok row) -> Some row)
        ineqs
    in
    if !infeasible then Zint.zero
    else begin
      (* dedup identical rows *)
      let rows =
        List.fold_left
          (fun acc row ->
            if List.exists (ineq_equal row) acc then acc else row :: acc)
          [] rows
        |> List.rev
      in
      let m = List.length rows in
      if m > max_rows || m < r + 1 then raise Inapplicable;
      let rows = Array.of_list rows in
      let coeffs = Array.map (fun { a; _ } -> a) rows in
      if Ilinalg.rank (Mat.of_arrays coeffs) < r then raise Inapplicable;
      (* Boundedness: the recession cone {d : M d ≥ 0} is pointed (full
         row rank), so if it is nonzero it has an extreme ray, which lies
         in the kernel of some (r−1)-subset of rows. *)
      let ray_escapes d =
        Array.exists (fun x -> not (Zint.is_zero x)) d
        && (Array.for_all (fun { a; _ } -> Zint.sign (zdot a d) >= 0) rows
           || Array.for_all (fun { a; _ } -> Zint.sign (zdot a d) <= 0) rows)
      in
      List.iter
        (fun s ->
          Obs.Budget.charge 1;
          let dirs =
            if Array.length s = 0 then
              Array.init r (fun i ->
                  Array.init r (fun j ->
                      if i = j then Zint.one else Zint.zero))
            else
              Ilinalg.kernel
                (Mat.of_arrays (Array.map (fun i -> coeffs.(i)) s))
          in
          if Array.exists ray_escapes dirs then raise Inapplicable)
        (subsets m (r - 1));
      (* Vertex enumeration over r-subsets with invertible submatrix. *)
      let vertices = ref [] in
      List.iter
        (fun s ->
          Obs.Budget.charge 1;
          let sub = Array.map (fun i -> coeffs.(i)) s in
          match Ilinalg.inv_scaled (Mat.of_arrays sub) with
          | None -> ()
          | Some (adj, det) ->
              (* v = M_S⁻¹ · (−d_S) *)
              let v =
                Array.init r (fun j ->
                    let acc = ref Qnum.zero in
                    Array.iteri
                      (fun t i ->
                        acc :=
                          Qnum.add !acc
                            (Qnum.mul
                               (qz (Mat.get adj j t))
                               (qz (Zint.neg rows.(i).c))))
                      s;
                    Qnum.div !acc (qz det))
              in
              let feasible =
                Array.for_all
                  (fun { a; c } ->
                    Qnum.sign (Qnum.add (qrow_dot v a) (qz c)) >= 0)
                  rows
              in
              if
                feasible
                && not
                     (List.exists
                        (fun v' ->
                          Array.for_all2 (fun x y -> Qnum.equal x y) v v')
                        !vertices)
              then vertices := v :: !vertices)
        (subsets m r);
      let vertices = List.rev !vertices in
      match vertices with
      | [] -> Zint.zero (* bounded and no vertex: empty *)
      | _ -> begin
          Obs.Metrics.observe m_vertices (List.length vertices);
          let tight_at v i =
            Qnum.is_zero (Qnum.add (qrow_dot v rows.(i).a) (qz rows.(i).c))
          in
          (* Implicit equality: a row tight at every vertex holds with
             equality on the whole polytope. Re-parameterize its integer
             solutions and recurse in the lower dimension. *)
          match
            List.find_opt
              (fun i -> List.for_all (fun v -> tight_at v i) vertices)
              (List.init m (fun i -> i))
          with
          | Some i -> begin
              let { a; c } = rows.(i) in
              match Ilinalg.solve (Mat.of_arrays [| a |]) [| Zint.neg c |] with
              | None -> Zint.zero
              | Some (y0, k) ->
                  let ineqs' =
                    List.filter_map
                      (fun j ->
                        if j = i then None
                        else
                          let { a; c } = rows.(j) in
                          Some
                            {
                              a = Array.map (fun kv -> zdot a kv) k;
                              c = Zint.add (zdot a y0) c;
                            })
                      (List.init m (fun j -> j))
                  in
                  count_polytope ineqs' (Array.length k)
            end
          | None ->
              (* Full-dimensional: Brion + dual-space Barvinok. *)
              let cones = ref [] in
              let ncones = ref 0 in
              List.iter
                (fun v ->
                  let tight =
                    List.filter_map
                      (fun i ->
                        if tight_at v i then
                          Some (Ilinalg.Cone.primitive rows.(i).a)
                        else None)
                      (List.init m (fun i -> i))
                  in
                  (* duplicate normals collapse after gcd reduction *)
                  let tight =
                    List.fold_left
                      (fun acc g ->
                        if
                          List.exists (Array.for_all2 Zint.equal g) acc
                        then acc
                        else g :: acc)
                      [] tight
                    |> List.rev |> Array.of_list
                  in
                  let cells = Ilinalg.Cone.triangulate tight in
                  List.iter
                    (fun cell ->
                      let pieces =
                        Ilinalg.Cone.unimodular_split
                          ~on_cone:(fun () ->
                            Obs.Budget.charge 1;
                            incr ncones)
                          cell
                      in
                      List.iter
                        (fun (sign, u) ->
                          (* Dualize back: the dual of cone(rows u) has
                             generators the columns of u⁻¹; unimodular,
                             so u⁻¹ = adj·det with det = ±1. *)
                          let adj, det =
                            match Ilinalg.inv_scaled (Mat.of_arrays u) with
                            | Some x -> x
                            | None -> assert false (* |det u| = 1 *)
                          in
                          let g =
                            Array.init r (fun j ->
                                Array.init r (fun i ->
                                    Zint.mul (Mat.get adj i j) det))
                          in
                          (* Apex: μ = v·G⁻¹, w = Σ ⌈μ_j⌉·g_j is the
                             unique lattice point generating v + cone(g)
                             ∩ Z^r as w + nonneg combinations. *)
                          let adjg, detg =
                            match
                              Ilinalg.inv_scaled (Mat.of_arrays g)
                            with
                            | Some x -> x
                            | None -> assert false (* unimodular *)
                          in
                          let mu =
                            Array.init r (fun j ->
                                let acc = ref Qnum.zero in
                                for i = 0 to r - 1 do
                                  acc :=
                                    Qnum.add !acc
                                      (Qnum.mul v.(i)
                                         (qz (Mat.get adjg i j)))
                                done;
                                Qnum.mul !acc (qz detg))
                          in
                          let w = Array.make r Zint.zero in
                          Array.iteri
                            (fun j mj ->
                              let cj = Qnum.ceil mj in
                              for i = 0 to r - 1 do
                                w.(i) <-
                                  Zint.add w.(i) (Zint.mul cj g.(j).(i))
                              done)
                            mu;
                          cones := { sign; w; g } :: !cones)
                        pieces)
                    cells)
                vertices;
              Obs.Metrics.observe m_cones !ncones;
              let total = specialize r (List.rev !cones) in
              (match Qnum.to_zint total with
              | Some n when Zint.sign n >= 0 -> n
              | _ ->
                  invalid_arg
                    (Printf.sprintf
                       "Gfcount: non-integral or negative count %s"
                       (Qnum.to_string total)))
        end
    end
  end

(* ------------------------------------------------------------------ *)
(* Clause front-end: lattice preprocessing                             *)

(* [count_clause ~vars c] is [Some n] with [n] the number of assignments
   of [vars] satisfying [c], or [None] when the backend does not apply
   (symbolic parameters, residual wildcards in inequalities, dimension or
   constraint count over the caps, or an unbounded solution set — the
   caller falls back to the Pugh engine, which raises its usual
   [Unbounded] in the last case). *)
let count_clause ~vars (c : C.t) : Zint.t option =
  match C.normalize c with
  | None -> Some Zint.zero
  | Some c -> (
      match C.eqs_to_strides c with
      | None -> Some Zint.zero
      | Some c -> (
          let used =
            List.fold_left
              (fun acc e -> List.fold_left (fun s v -> V.Set.add v s) acc (A.vars e))
              V.Set.empty
              (c.eqs @ c.geqs @ List.map snd c.strides)
          in
          if not (V.Set.is_empty (V.Set.inter used c.wilds)) then None
          else if
            not
              (V.Set.subset (C.free_vars c)
                 (V.Set.of_list vars))
          then None (* symbolic parameters *)
          else begin
            (* Lattice coordinates: unknowns t = (vars, one auxiliary per
               stride), equations from eqs and from c | e ⇒ e − c·s = 0.
               The solution set is t0 + K·y; substituting into the
               inequalities yields a pure polytope in y whose integer
               points biject with the clause's solutions (each auxiliary
               is a function of the vars). *)
            let vars_a = Array.of_list vars in
            let n = Array.length vars_a in
            let k = List.length c.strides in
            let dim = n + k in
            let col v =
              let rec go i =
                if i >= n then None
                else if V.equal vars_a.(i) v then Some i
                else go (i + 1)
              in
              go 0
            in
            let row_of_aff e extra =
              let r = Array.make dim Zint.zero in
              A.fold
                (fun v cf () ->
                  match col v with
                  | Some i -> r.(i) <- cf
                  | None -> assert false (* free_vars ⊆ vars checked *))
                e ();
              List.iter (fun (j, x) -> r.(n + j) <- x) extra;
              (r, Zint.neg (A.constant e))
            in
            let eq_rows = List.map (fun e -> row_of_aff e []) c.eqs in
            let stride_rows =
              List.mapi
                (fun j (m, e) -> row_of_aff e [ (j, Zint.neg m) ])
                c.strides
            in
            let sys = eq_rows @ stride_rows in
            let solved =
              if sys = [] then
                (* no equations: t free over Z^dim *)
                Some
                  ( Array.make dim Zint.zero,
                    Array.init dim (fun i ->
                        Array.init dim (fun j ->
                            if i = j then Zint.one else Zint.zero)) )
              else
                Ilinalg.solve
                  (Mat.of_arrays
                     (Array.of_list (List.map fst sys)))
                  (Array.of_list (List.map snd sys))
            in
            match solved with
            | None -> Some Zint.zero
            | Some (t0, kern) ->
                let r = Array.length kern in
                let ineqs =
                  List.map
                    (fun e ->
                      let coeff = Array.make n Zint.zero in
                      A.fold
                        (fun v cf () ->
                          match col v with
                          | Some i -> coeff.(i) <- cf
                          | None -> assert false)
                        e ();
                      let dot_prefix t =
                        let acc = ref Zint.zero in
                        for i = 0 to n - 1 do
                          acc := Zint.add !acc (Zint.mul coeff.(i) t.(i))
                        done;
                        !acc
                      in
                      {
                        a = Array.map dot_prefix kern;
                        c = Zint.add (dot_prefix t0) (A.constant e);
                      })
                    c.geqs
                in
                if r = 0 then
                  Some
                    (if
                       List.for_all
                         (fun { c; _ } -> Zint.sign c >= 0)
                         ineqs
                     then Zint.one
                     else Zint.zero)
                else (
                  try Some (count_polytope ineqs r)
                  with Inapplicable -> None)
          end))

(* ------------------------------------------------------------------ *)
(* Splinter fan-out estimate (the planner's gf routing)                *)

(* Static estimate of the residue fan-out the Pugh engine would pay on
   this clause: the product of the non-unit |coefficients| of summation
   variables in the inequalities and of the stride moduli touching them,
   capped. Deterministic in the clause alone so backend choice is
   identical across runs and domains. The threshold calibration
   comes from the engine.splinter_fanout histogram: clauses that splinter
   at all (fan-out ≥ 2) are where the generating-function backend wins. *)
let fanout_cap = 64

let estimate_fanout vars (c : C.t) : int =
  let mentions_var e =
    List.exists (fun v -> List.exists (V.equal v) vars) (A.vars e)
  in
  let mul_capped acc f = if acc >= fanout_cap then acc else min fanout_cap (acc * f) in
  let acc =
    List.fold_left
      (fun acc e ->
        List.fold_left
          (fun acc v ->
            if List.exists (V.equal v) vars then
              let cf = Zint.abs (A.coeff e v) in
              match Zint.to_int cf with
              | Some x when x > 1 -> mul_capped acc x
              | Some _ -> acc
              | None -> fanout_cap
            else acc)
          acc (A.vars e))
      1 c.geqs
  in
  List.fold_left
    (fun acc (m, e) ->
      if mentions_var e then
        match Zint.to_int m with
        | Some x when x > 1 -> mul_capped acc x
        | _ -> acc
      else acc)
    acc c.strides
