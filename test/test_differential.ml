(* Randomized differential testing: the engine against brute-force
   enumeration, with the memo tables on and off, across strategies and
   option flags. Formulas are small (≤ 3 summation variables, coefficients
   in [-4, 4], optional strides / quantifiers / disjunction / negation)
   and every summation variable is boxed inside the formula itself, so
   enumeration over the same box is an exact oracle. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module E = Counting.Engine

let box_lo = -4
let box_hi = 4

let k n = A.of_int n
let av s = A.var (V.named s)

(* ------------------------------------------------------------------ *)
(* Generator (seeded, deterministic)                                    *)

type case = {
  seed : int;
  vars : string list;  (* summation variables *)
  formula : F.t;
  env : (string * int) list;  (* symbolic-constant bindings, possibly [] *)
}

let gen_affine st vars ~symbolic =
  (* random Σ c·v + c0 over a nonempty subset of vars (plus optionally the
     symbolic constant n), coefficients in [-3, 3]: any |c| > 1 already
     forces splintering, while |c| = 4 together with strides makes the
     exact strategy blow up multiplicatively (minutes per case).  Symbolic
     cases get [-2, 2]: without a concrete bound on n nothing prunes the
     splinter tree, so the budget must be tighter still. *)
  let span = if symbolic then 5 else 7 in
  let coeff () = Random.State.int st span - (span / 2) in
  let terms =
    List.filter_map
      (fun v ->
        let c = coeff () in
        if c = 0 then None else Some (A.term (Zint.of_int c) (V.named v)))
      vars
  in
  let terms =
    if symbolic && Random.State.int st 3 = 0 then
      A.term (Zint.of_int (1 + Random.State.int st 2)) (V.named "n") :: terms
    else terms
  in
  List.fold_left A.add (k (coeff ())) terms

let gen_atom st vars ~symbolic =
  let e = gen_affine st vars ~symbolic in
  match Random.State.int st 4 with
  | 0 -> F.eq e A.zero
  | 1 | 2 -> F.geq e A.zero
  | _ ->
      let m = 2 + Random.State.int st 3 in
      F.stride (Zint.of_int m) e

let gen_case seed =
  let st = Random.State.make [| 0x5eed; seed |] in
  let symbolic = Random.State.int st 4 = 0 in
  (* symbolic cases count over at most two variables: three eliminations
     against an unbounded parameter is where exact counting goes
     exponential *)
  let nvars = 1 + Random.State.int st (if symbolic then 2 else 3) in
  let vars = List.filteri (fun i _ -> i < nvars) [ "x"; "y"; "z" ] in
  let boxes =
    List.map (fun v -> F.between (k box_lo) (av v) (k box_hi)) vars
  in
  let natoms = 2 + Random.State.int st 3 in
  let atoms = List.init natoms (fun _ -> gen_atom st vars ~symbolic) in
  let atoms =
    (* wrap some atoms in negation *)
    List.map
      (fun a -> if Random.State.int st 5 = 0 then F.not_ a else a)
      atoms
  in
  let body =
    if Random.State.int st 3 = 0 then
      (* split atoms into a disjunction of two conjunctions *)
      let rec split i = function
        | [] -> ([], [])
        | a :: rest ->
            let l, r = split (i + 1) rest in
            if i mod 2 = 0 then (a :: l, r) else (l, a :: r)
      in
      let l, r = split 0 atoms in
      F.or_ [ F.and_ l; F.and_ r ]
    else F.and_ atoms
  in
  let body =
    (* occasionally add an existential witness: ∃w boxed, w related to the
       first summation variable *)
    if Random.State.int st 4 = 0 then begin
      let w = V.named "w" in
      let c = 1 + Random.State.int st 3 in
      F.exists [ w ]
        (F.and_
           [
             F.between (k box_lo) (A.var w) (k box_hi);
             F.eq
               (A.sub (av (List.hd vars)) (A.scale (Zint.of_int c) (A.var w)))
               A.zero;
           ])
      |> fun ex -> F.and_ [ body; ex ]
    end
    else body
  in
  let formula = F.and_ (boxes @ [ body ]) in
  let env = if symbolic then [ ("n", 1 + (seed mod 7)) ] else [] in
  { seed; vars; formula; env }

(* Dense-polytope / simplex family (seeds 300–499): fully concrete,
   inequality-heavy clauses with larger coefficients than the base
   family, stressing the generating-function backend's cone
   decomposition. Half the cases route several constraints exactly
   through a common interior point, producing the near-degenerate
   vertices whose tangent cones need genuine triangulation. Coefficient
   spans shrink with dimension so the Pugh oracle's splintering stays
   tractable. *)
let gen_dense_case seed =
  let st = Random.State.make [| 0xde25e; seed |] in
  let nvars = 2 + Random.State.int st 2 in
  let vars = List.filteri (fun i _ -> i < nvars) [ "x"; "y"; "z" ] in
  let span = if nvars = 2 then 9 else 5 in
  let coeff () =
    let c = Random.State.int st (2 * span) - span in
    if c >= 0 then c + 1 else c (* never zero: dense rows *)
  in
  let degenerate = Random.State.int st 2 = 0 in
  let p = List.map (fun v -> (v, Random.State.int st 5 - 2)) vars in
  let gen_row ~through_p =
    let terms = List.map (fun v -> (v, coeff ())) vars in
    let c0 =
      if through_p then
        (* constant chosen so the row is tight at p *)
        -List.fold_left
           (fun acc (v, c) -> acc + (c * List.assoc v p))
           0 terms
      else Random.State.int st 9 - 4
    in
    List.fold_left
      (fun acc (v, c) -> A.add acc (A.term (Zint.of_int c) (V.named v)))
      (k c0) terms
  in
  let natoms = 4 + Random.State.int st 3 in
  let atoms =
    List.init natoms (fun i ->
        F.geq (gen_row ~through_p:(degenerate && i < natoms / 2)) A.zero)
  in
  let atoms =
    if Random.State.int st 3 = 0 then
      let m = 2 + Random.State.int st 4 in
      F.stride (Zint.of_int m) (gen_row ~through_p:false) :: atoms
    else atoms
  in
  let boxes =
    List.map (fun v -> F.between (k box_lo) (av v) (k box_hi)) vars
  in
  { seed; vars; formula = F.and_ (boxes @ atoms); env = [] }

(* ------------------------------------------------------------------ *)
(* Oracles and checks                                                   *)

let env_fn env name =
  match List.assoc_opt name env with
  | Some x -> Zint.of_int x
  | None -> Alcotest.failf "unbound symbolic constant %s" name

let brute case =
  E.brute_sum ~vars:case.vars ~lo:box_lo ~hi:box_hi (env_fn case.env)
    case.formula Qpoly.one

(* Every oracle below except "auto" pins the Pugh splintering engine, so
   it is checked against brute force directly and not only through the
   default pipeline (which routes concrete, fan-out-heavy clauses to gf). *)
let pugh = { E.default with backend = E.Pugh }

let engine_count ?(opts = pugh) case =
  let value = E.count ~opts ~vars:case.vars case.formula in
  Counting.Value.eval (env_fn case.env) value

let qnum =
  Alcotest.testable
    (fun fmt q -> Format.pp_print_string fmt (Qnum.to_string q))
    Qnum.equal

let check_case seed =
  let dense = seed >= 300 in
  let case = if dense then gen_dense_case seed else gen_case seed in
  let truth = brute case in
  let label strat = Printf.sprintf "case %d [%s]" seed strat in
  (* exact, memo on *)
  Alcotest.check qnum (label "exact") truth (engine_count case);
  (* exact, memo off — base family only: memo behaviour does not depend
     on which counting backend produced the pieces, and a handful of
     dense seeds (435 above all) splinter heavily under Pugh *)
  if not dense then begin
    Omega.Memo.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Omega.Memo.set_enabled true)
      (fun () ->
        Alcotest.check qnum (label "exact/no-memo") truth (engine_count case))
  end;
  (* third oracle: the generating-function backend (independently derived
     counter; falls back to Pugh per clause only where inapplicable, so
     on concrete seeds this exercises Barvinok decomposition end to
     end), plus the default pipeline's per-clause mix (the planner
     routes some clauses to gf and leaves the rest to Pugh) *)
  Alcotest.check qnum (label "gf") truth
    (engine_count ~opts:{ E.default with backend = E.Gf } case);
  Alcotest.check qnum (label "auto") truth (engine_count ~opts:E.default case);
  (* symbolic strategy agrees exactly (base family; on the fully concrete
     dense family Symbolic degenerates to Exact and only re-pays the
     splinter cost the gf oracle exists to avoid) *)
  if not dense then
    Alcotest.check qnum (label "symbolic") truth
      (engine_count ~opts:{ pugh with strategy = E.Symbolic } case);
  (* upper / lower bracket the truth (counts are nonnegative summands) *)
  let upper =
    engine_count ~opts:{ pugh with strategy = E.Upper } case
  in
  let lower =
    engine_count ~opts:{ pugh with strategy = E.Lower } case
  in
  if Qnum.compare upper truth < 0 then
    Alcotest.failf "%s: upper %s < truth %s" (label "upper")
      (Qnum.to_string upper) (Qnum.to_string truth);
  if Qnum.compare lower truth > 0 then
    Alcotest.failf "%s: lower %s > truth %s" (label "lower")
      (Qnum.to_string lower) (Qnum.to_string truth);
  (* every 5th base case: the full flag matrix (flag interplay is a
     strategy concern, orthogonal to the backend differential the dense
     family targets — and it multiplies the per-case Pugh cost ninefold) *)
  if (not dense) && seed mod 5 = 0 then
    List.iter
      (fun flexible_order ->
        List.iter
          (fun eliminate_redundant ->
            List.iter
              (fun strategy ->
                let opts =
                  {
                    pugh with
                    strategy;
                    flexible_order;
                    eliminate_redundant;
                  }
                in
                Alcotest.check qnum
                  (Printf.sprintf "%s flex=%b red=%b" (label "matrix")
                     flexible_order eliminate_redundant)
                  truth (engine_count ~opts case))
              [ E.Exact; E.Symbolic ];
            (* overlapping DNF may only overcount *)
            let over =
              engine_count
                ~opts:
                  {
                    pugh with
                    flexible_order;
                    eliminate_redundant;
                    disjoint = false;
                  }
                case
            in
            if Qnum.compare over truth < 0 then
              Alcotest.failf "%s: overlapping %s < truth %s" (label "overlap")
                (Qnum.to_string over) (Qnum.to_string truth))
          [ true; false ])
      [ true; false ]

let test_differential_block lo () =
  for seed = lo to lo + 49 do
    check_case seed
  done

(* ------------------------------------------------------------------ *)
(* Determinism: identical queries produce syntactically identical
   results once the fresh-name counters are rewound — with the memo on
   (warm tables must replay the very same clauses) and off.             *)

let reset_world () =
  V.reset_fresh ();
  E.reset_fresh_sum_var ();
  Omega.Memo.clear_all ()

let test_determinism () =
  let case = gen_case 42 in
  let run () =
    reset_world ();
    Counting.Value.to_string (E.count ~vars:case.vars case.formula)
  in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "memo-on runs identical" a b;
  Omega.Memo.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Omega.Memo.set_enabled true)
    (fun () ->
      let c = run () in
      let d = run () in
      Alcotest.(check string) "memo-off runs identical" c d;
      Alcotest.(check string) "memo on = memo off syntactically" a c)

let suite =
  ( "differential",
    [
      Alcotest.test_case "random cases 0-49 vs brute force" `Quick
        (test_differential_block 0);
      Alcotest.test_case "random cases 50-99 vs brute force" `Quick
        (test_differential_block 50);
      Alcotest.test_case "random cases 100-149 vs brute force" `Quick
        (test_differential_block 100);
      Alcotest.test_case "random cases 150-199 vs brute force" `Quick
        (test_differential_block 150);
      Alcotest.test_case "random cases 200-249 vs brute force" `Quick
        (test_differential_block 200);
      Alcotest.test_case "random cases 250-299 vs brute force" `Quick
        (test_differential_block 250);
      Alcotest.test_case "dense polytopes 300-349 vs brute force" `Quick
        (test_differential_block 300);
      Alcotest.test_case "dense polytopes 350-399 vs brute force" `Quick
        (test_differential_block 350);
      Alcotest.test_case "dense polytopes 400-449 vs brute force" `Quick
        (test_differential_block 400);
      Alcotest.test_case "dense polytopes 450-499 vs brute force" `Quick
        (test_differential_block 450);
      Alcotest.test_case "determinism after counter reset" `Quick
        test_determinism;
    ] )
