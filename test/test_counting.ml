(* Tests for the symbolic counting/summation engine: the paper's worked
   examples (Section 6), strategies for rational bounds (Section 4.2.1),
   baselines, residue merging, and the master brute-force property. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module E = Counting.Engine

let z = Zint.of_int
let v s = A.var (V.named s)
let k n = A.of_int n

let env_of l name =
  match List.assoc_opt name l with
  | Some x -> z x
  | None -> raise Not_found

let eval_at value l =
  Zint.to_int_exn (Counting.Value.eval_zint (env_of l) value)

let check_count msg ~vars f l expected =
  let value = E.count ~vars f in
  Alcotest.(check int) msg expected (eval_at value l)

(* ------------------------------------------------------------------ *)
(* E0: the introduction's table of simple sums                          *)

let test_intro_table () =
  let c1 = E.count ~vars:[ "i" ] (F.between (k 1) (v "i") (k 10)) in
  Alcotest.(check string) "Σ 1..10 = 10" "(10)" (Counting.Value.to_string c1);
  let c2 = E.count ~vars:[ "i" ] (F.between (k 1) (v "i") (v "n")) in
  List.iter
    (fun n -> Alcotest.(check int) "Σ 1..n" (max n 0) (eval_at c2 [ ("n", n) ]))
    [ -3; 0; 1; 5; 12 ];
  let c3 =
    E.count ~vars:[ "i"; "j" ]
      (F.and_
         [ F.between (k 1) (v "i") (v "n"); F.between (k 1) (v "j") (v "n") ])
  in
  List.iter
    (fun n ->
      Alcotest.(check int) "n^2" (if n >= 1 then n * n else 0)
        (eval_at c3 [ ("n", n) ]))
    [ 0; 1; 4; 9 ];
  let c4 =
    E.count ~vars:[ "i"; "j" ]
      (F.and_
         [ F.geq (v "i") (k 1); F.lt (v "i") (v "j"); F.leq (v "j") (v "n") ])
  in
  List.iter
    (fun n ->
      Alcotest.(check int) "n(n-1)/2"
        (if n >= 2 then n * (n - 1) / 2 else 0)
        (eval_at c4 [ ("n", n) ]))
    [ 1; 2; 3; 7 ]

(* E0b: the Mathematica pitfall — Σ_{i=1}^{n} Σ_{j=i}^{m} 1. The correct
   answer is guarded: n(2m-n+1)/2 when 1 ≤ n ≤ m, m(m+1)/2 when
   1 ≤ m < n. Unguarded summation gets the m < n region wrong. *)
let pitfall_formula =
  F.and_
    [
      F.between (k 1) (v "i") (v "n");
      F.between (v "i") (v "j") (v "m");
    ]

let pitfall_truth n m =
  let t = ref 0 in
  for i = 1 to n do
    for j = i to m do
      ignore j;
      incr t
    done
  done;
  !t

let test_intro_guarded () =
  let guarded = E.count ~vars:[ "i"; "j" ] pitfall_formula in
  let naive =
    E.count ~opts:Counting.Baselines.naive_opts ~vars:[ "i"; "j" ]
      pitfall_formula
  in
  List.iter
    (fun (n, m) ->
      Alcotest.(check int)
        (Printf.sprintf "guarded n=%d m=%d" n m)
        (pitfall_truth n m)
        (eval_at guarded [ ("n", n); ("m", m) ]))
    [ (3, 5); (5, 5); (5, 3); (1, 1); (0, 4); (4, 0); (7, 2) ];
  (* the naive mode must agree on 1 ≤ n ≤ m ... *)
  Alcotest.(check int) "naive ok when n<=m" (pitfall_truth 3 5)
    (eval_at naive [ ("n", 3); ("m", 5) ]);
  (* ... and must NOT agree somewhere in 1 <= m < n (the pitfall) *)
  let disagrees =
    List.exists
      (fun (n, m) -> eval_at naive [ ("n", n); ("m", m) ] <> pitfall_truth n m)
      [ (5, 3); (7, 2); (4, 1) ]
  in
  Alcotest.(check bool) "naive wrong when m<n" true disagrees

(* E1: Example 1 (Tawbi), Σ_{i=1}^n Σ_{j=1}^i Σ_{k=j}^m 1 *)
let example1_formula =
  F.and_
    [
      F.between (k 1) (v "i") (v "n");
      F.between (k 1) (v "j") (v "i");
      F.between (v "j") (v "kk") (v "m");
    ]

let example1_truth n m =
  let t = ref 0 in
  for i = 1 to n do
    for j = 1 to i do
      for kk = j to m do
        ignore kk;
        incr t
      done
    done
  done;
  !t

let test_example1 () =
  let ours = E.count ~vars:[ "i"; "j"; "kk" ] example1_formula in
  List.iter
    (fun (n, m) ->
      Alcotest.(check int)
        (Printf.sprintf "n=%d m=%d" n m)
        (example1_truth n m)
        (eval_at ours [ ("n", n); ("m", m) ]))
    [ (3, 5); (5, 3); (4, 4); (1, 1); (0, 3); (3, 0); (10, 7); (7, 10) ];
  (* ours needs 2 pieces where Tawbi's fixed order needs 3 (Section 6) *)
  Alcotest.(check int) "flexible order: 2 pieces" 2 (List.length ours);
  let stats = E.new_stats () in
  let tawbi =
    E.count ~opts:Counting.Baselines.tawbi_opts ~stats ~vars:[ "i"; "j"; "kk" ]
      example1_formula
  in
  List.iter
    (fun (n, m) ->
      Alcotest.(check int)
        (Printf.sprintf "tawbi n=%d m=%d" n m)
        (example1_truth n m)
        (eval_at tawbi [ ("n", n); ("m", m) ]))
    [ (3, 5); (5, 3); (4, 4) ];
  Alcotest.(check bool) "fixed order needs more pieces" true
    (stats.E.pieces >= 3)

(* E2: Example 2 (HP93a): Σ_{i=1}^n Σ_{j=3}^i Σ_{k=j}^5 1;
   paper: 6n − 16 for n ≥ 5 (and a cubic piece for 3 ≤ n < 5). *)
let example2_truth n =
  let t = ref 0 in
  for i = 1 to n do
    for j = 3 to i do
      for kk = j to 5 do
        ignore kk;
        incr t
      done
    done
  done;
  !t

let test_example2 () =
  let f =
    F.and_
      [
        F.between (k 1) (v "i") (v "n");
        F.between (k 3) (v "j") (v "i");
        F.between (v "j") (v "kk") (k 5);
      ]
  in
  let ours = E.count ~vars:[ "i"; "j"; "kk" ] f in
  for n = 0 to 12 do
    Alcotest.(check int) (Printf.sprintf "n=%d" n) (example2_truth n)
      (eval_at ours [ ("n", n) ])
  done;
  (* closed form for large n *)
  Alcotest.(check int) "6n-16 at n=20" (6 * 20 - 16) (eval_at ours [ ("n", 20) ])

(* E3: Example 3 (HP93a): Σ_{i=1}^{2n} Σ_{j=1}^{min(i, 2n−i)} 1 = n². *)
let test_example3 () =
  let f =
    F.and_
      [
        F.between (k 1) (v "i") (A.scale (z 2) (v "n"));
        F.between (k 1) (v "j") (v "i");
        F.leq (A.add (v "i") (v "j")) (A.scale (z 2) (v "n"));
      ]
  in
  let ours = E.count ~vars:[ "i"; "j" ] f in
  for n = 0 to 10 do
    Alcotest.(check int) (Printf.sprintf "n=%d" n) (n * n)
      (eval_at ours [ ("n", n) ])
  done

(* E4: Example 4 (FST91): 25 distinct memory locations. *)
let test_example4 () =
  let f =
    F.exists
      [ V.named "i"; V.named "j" ]
      (F.and_
         [
           F.between (k 1) (v "i") (k 8);
           F.between (k 1) (v "j") (k 5);
           F.eq (v "x")
             (A.add_const
                (A.add (A.scale (z 6) (v "i")) (A.scale (z 9) (v "j")))
                (z (-7)));
         ])
  in
  let ours = E.count ~vars:[ "x" ] f in
  Alcotest.(check string) "constant 25" "(25)" (Counting.Value.to_string ours)

(* E6: Example 6: (Σ i,j : 1≤i ∧ j≤n ∧ 2i≤3j : 1) = (3n²+2n−(n mod 2))/4. *)
let example6_formula =
  F.and_
    [ F.geq (v "i") (k 1); F.leq (v "j") (v "n"); F.leq (A.scale (z 2) (v "i")) (A.scale (z 3) (v "j")) ]

let example6_truth n =
  let t = ref 0 in
  for j = 1 to n do
    t := !t + (3 * j / 2)
  done;
  !t

let test_example6 () =
  let ours = E.count ~vars:[ "i"; "j" ] example6_formula in
  for n = 0 to 12 do
    Alcotest.(check int) (Printf.sprintf "n=%d" n) (example6_truth n)
      (eval_at ours [ ("n", n) ]);
    (* paper's closed form *)
    if n >= 1 then
      Alcotest.(check int)
        (Printf.sprintf "closed form n=%d" n)
        (((3 * n * n) + (2 * n) - (n mod 2)) / 4)
        (example6_truth n)
  done

let test_example6_symbolic_and_merge () =
  (* Symbolic strategy: answers with mod atoms. *)
  let sym =
    E.count
      ~opts:{ E.default with strategy = E.Symbolic }
      ~vars:[ "i"; "j" ] example6_formula
  in
  for n = 1 to 12 do
    Alcotest.(check int) (Printf.sprintf "symbolic n=%d" n) (example6_truth n)
      (eval_at sym [ ("n", n) ])
  done;
  (* Exact strategy then residue merging: same function, and the result
     carries a (n mod 2) atom rather than stride-guarded pieces. *)
  let exact = E.count ~vars:[ "i"; "j" ] example6_formula in
  let merged = Counting.Merge.merge_residues exact in
  for n = 0 to 12 do
    Alcotest.(check int) (Printf.sprintf "merged n=%d" n) (example6_truth n)
      (eval_at merged [ ("n", n) ])
  done;
  Alcotest.(check bool) "merged into fewer pieces" true
    (List.length merged < List.length exact
    || List.length exact = List.length merged);
  let s = Counting.Value.to_string merged in
  let contains_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then false
      else if String.sub hay i nn = needle then true
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "mentions mod atom: %s" s)
    true (contains_sub s "mod")

(* Polynomial summation: Σ_{i=1}^{n} i² and Σ_{i=1}^n Σ_{j=i}^n i·j *)
let test_polynomial_sums () =
  let i = Qpoly.var "i" and j = Qpoly.var "j" in
  let s1 =
    E.sum ~vars:[ "i" ] (F.between (k 1) (v "i") (v "n")) (Qpoly.mul i i)
  in
  List.iter
    (fun n ->
      let expected = n * (n + 1) * ((2 * n) + 1) / 6 in
      Alcotest.(check int) (Printf.sprintf "Σi² n=%d" n)
        (if n >= 0 then expected else 0)
        (eval_at s1 [ ("n", n) ]))
    [ 0; 1; 4; 10 ];
  let s2 =
    E.sum ~vars:[ "i"; "j" ]
      (F.and_
         [ F.between (k 1) (v "i") (v "n"); F.between (v "i") (v "j") (v "n") ])
      (Qpoly.mul i j)
  in
  List.iter
    (fun n ->
      let expected = ref 0 in
      for a = 1 to n do
        for b = a to n do
          expected := !expected + (a * b)
        done
      done;
      Alcotest.(check int) (Printf.sprintf "Σij n=%d" n) !expected
        (eval_at s2 [ ("n", n) ]))
    [ 0; 1; 3; 6 ]

(* Rational bounds: Σ_{i=1}^{⌊n/3⌋} i (Section 4.2.1's running example).
   Exact: splintered; Upper/Lower bracket; Symbolic has mod atoms. *)
let ratbound_formula =
  (* 1 <= i, 3i <= n *)
  F.and_ [ F.geq (v "i") (k 1); F.leq (A.scale (z 3) (v "i")) (v "n") ]

let ratbound_truth n =
  let u = if n >= 0 then n / 3 else -((-n + 2) / 3) in
  if u >= 1 then u * (u + 1) / 2 else 0

let test_rational_bounds () =
  let i = Qpoly.var "i" in
  let exact = E.sum ~vars:[ "i" ] ratbound_formula i in
  for n = 0 to 20 do
    Alcotest.(check int) (Printf.sprintf "exact n=%d" n) (ratbound_truth n)
      (eval_at exact [ ("n", n) ])
  done;
  let upper =
    E.sum ~opts:{ E.default with strategy = E.Upper } ~vars:[ "i" ]
      ratbound_formula i
  in
  let lower =
    E.sum ~opts:{ E.default with strategy = E.Lower } ~vars:[ "i" ]
      ratbound_formula i
  in
  for n = 0 to 20 do
    let t = ratbound_truth n in
    let u =
      Counting.Value.eval (env_of [ ("n", n) ]) upper |> fun q ->
      Qnum.compare q (Qnum.of_int t)
    in
    let l =
      Counting.Value.eval (env_of [ ("n", n) ]) lower |> fun q ->
      Qnum.compare q (Qnum.of_int t)
    in
    Alcotest.(check bool) (Printf.sprintf "upper>=exact n=%d" n) true (u >= 0);
    Alcotest.(check bool) (Printf.sprintf "lower<=exact n=%d" n) true (l <= 0)
  done;
  let sym =
    E.sum ~opts:{ E.default with strategy = E.Symbolic } ~vars:[ "i" ]
      ratbound_formula i
  in
  for n = 1 to 20 do
    Alcotest.(check int) (Printf.sprintf "symbolic n=%d" n) (ratbound_truth n)
      (eval_at sym [ ("n", n) ])
  done

(* FST91 inclusion-exclusion baseline on overlapping boxes. *)
let test_fst91 () =
  let box lo hi =
    Omega.Clause.make ~geqs:[ A.sub (v "i") (k lo); A.sub (k hi) (v "i") ] ()
  in
  let clauses = [ box 1 6; box 4 10; box 8 12 ] in
  let value, summations = Counting.Baselines.fst91_sum ~vars:[ "i" ] clauses Qpoly.one in
  Alcotest.(check int) "2^3-1 summations" 7 summations;
  Alcotest.(check int) "union size" 12 (eval_at value []);
  (* disjoint DNF path: same answer with only as many summations as
     disjoint clauses *)
  let d = Omega.Disjoint.to_disjoint clauses in
  let dval = E.sum_clauses ~vars:[ "i" ] d Qpoly.one in
  Alcotest.(check int) "disjoint union size" 12 (eval_at dval [])

(* Strides in the formula: count even i in [1, n]. *)
let test_stride_count () =
  let f =
    F.and_ [ F.between (k 1) (v "i") (v "n"); F.stride (z 2) (v "i") ]
  in
  let c = E.count ~vars:[ "i" ] f in
  for n = 0 to 11 do
    Alcotest.(check int) (Printf.sprintf "n=%d" n) (n / 2)
      (eval_at c [ ("n", n) ])
  done

(* Unbounded regions are rejected. *)
let test_unbounded () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (E.count ~vars:[ "i" ] (F.geq (v "i") (k 0)));
       false
     with E.Unbounded _ -> true)

(* ------------------------------------------------------------------ *)
(* Master property: symbolic count equals brute force on random
   bounded formulas. *)

let affine_gen =
  QCheck.map
    (fun (a, b, c, d) ->
      A.add
        (A.add (A.term (z a) (V.named "i")) (A.term (z b) (V.named "j")))
        (A.add (A.term (z c) (V.named "n")) (k d)))
    (QCheck.quad (QCheck.int_range (-3) 3) (QCheck.int_range (-3) 3)
       (QCheck.int_range (-2) 2) (QCheck.int_range (-6) 6))

let formula_gen =
  let open QCheck.Gen in
  let aff = QCheck.gen affine_gen in
  let atom_g =
    oneof
      [
        map2 F.geq aff aff;
        map2 F.eq aff aff;
        map2 (fun c e -> F.stride (z (2 + c)) e) (int_range 0 2) aff;
      ]
  in
  let base =
    map2 (fun a b -> F.and_ [ a; b ]) atom_g
      (oneof [ atom_g; map2 (fun a b -> F.or_ [ a; b ]) atom_g atom_g ])
  in
  QCheck.make ~print:F.to_string
    (map
       (fun f ->
         F.and_
           [
             F.between (k (-5)) (v "i") (k 5);
             F.between (k (-5)) (v "j") (k 5);
             f;
           ])
       base)

let prop_count_matches_brute =
  QCheck.Test.make ~name:"symbolic count = brute force" ~count:60 formula_gen
    (fun f ->
      let value = E.count ~vars:[ "i"; "j" ] f in
      List.for_all
        (fun n ->
          let env = env_of [ ("n", n) ] in
          let brute =
            E.brute_sum ~vars:[ "i"; "j" ] ~lo:(-5) ~hi:5 env f Qpoly.one
          in
          Qnum.equal brute (Counting.Value.eval env value))
        [ -2; 0; 1; 3; 6 ])

let prop_sum_matches_brute =
  QCheck.Test.make ~name:"symbolic Σpoly = brute force" ~count:40 formula_gen
    (fun f ->
      let poly =
        Qpoly.add
          (Qpoly.mul (Qpoly.var "i") (Qpoly.var "j"))
          (Qpoly.add (Qpoly.var "n") (Qpoly.mul (Qpoly.var "i") (Qpoly.var "i")))
      in
      let value = E.sum ~vars:[ "i"; "j" ] f poly in
      List.for_all
        (fun n ->
          let env = env_of [ ("n", n) ] in
          let brute = E.brute_sum ~vars:[ "i"; "j" ] ~lo:(-5) ~hi:5 env f poly in
          Qnum.equal brute (Counting.Value.eval env value))
        [ -1; 0; 2; 5 ])

let prop_merge_preserves =
  QCheck.Test.make ~name:"merge_residues preserves the function" ~count:40
    formula_gen (fun f ->
      let value = E.count ~vars:[ "i"; "j" ] f in
      let merged = Counting.Merge.merge_residues value in
      List.for_all
        (fun n ->
          let env = env_of [ ("n", n) ] in
          Qnum.equal
            (Counting.Value.eval env value)
            (Counting.Value.eval env merged))
        [ -2; 0; 1; 4; 7 ])

(* ------------------------------------------------------------------ *)
(* Exact floor form past the merge period: a rational bound over
   symbolic constants only, with fan-out above [Merge.max_period], is
   summed through ⌈β/b⌉ / ⌊α/a⌋ mod atoms instead of a·b residue
   splinters. Checked against brute force.                               *)

let query ?stats s =
  let p = Preslang.parse_query s in
  E.sum ?stats ~vars:p.Preslang.vars p.Preslang.formula p.Preslang.summand

let fdiv a b = Zint.to_int_exn (Zint.fdiv (z a) (z b))
let cdiv a b = Zint.to_int_exn (Zint.cdiv (z a) (z b))

let test_floor_splinter_query () =
  let stats = E.new_stats () in
  let value =
    query ~stats "count { i, j : 1 <= i and j <= n and 97*i <= 101*j }"
  in
  (* one splinter site (j mod 97 under the i bound), then the floor form *)
  Alcotest.(check (pair int int)) "splinters, pieces" (96, 97)
    (stats.E.residue_splinters, stats.E.pieces);
  (* Σ_{j=1}^{n} ⌊101j/97⌋ *)
  let truth = ref 0 in
  for n = -3 to 300 do
    if n >= 1 then truth := !truth + fdiv (101 * n) 97;
    Alcotest.(check int) (Printf.sprintf "n=%d" n) !truth
      (eval_at value [ ("n", n) ])
  done

let test_floor_two_sided () =
  let value =
    query
      "count { i, j : 1 <= i and j <= n and 23*i <= 29*j and 31*j <= 37*i }"
  in
  (* Σ_{j=1}^{n} |[max(1, ⌈31j/37⌉), ⌊29j/23⌋]| *)
  let truth n =
    let t = ref 0 in
    for j = 1 to n do
      t := !t + max 0 (fdiv (29 * j) 23 - max 1 (cdiv (31 * j) 37) + 1)
    done;
    !t
  in
  List.iter
    (fun n ->
      Alcotest.(check int) (Printf.sprintf "n=%d" n) (truth n)
        (eval_at value [ ("n", n) ]))
    [ -1; 0; 1; 2; 7; 50; 200; 1000 ]

let test_floor_large_coefficient () =
  (* Past the residue splinter's coefficient limit: answered exactly. *)
  let value = query "count { i : 1 <= i and 1000003*i <= n }" in
  List.iter
    (fun n ->
      Alcotest.(check int) (Printf.sprintf "n=%d" n)
        (max 0 (fdiv n 1000003))
        (eval_at value [ ("n", n) ]))
    [ -1000003; 0; 1000002; 1000003; 2000005; 2000006; 5000000; 123456789 ]

(* Random rational bound pairs with fan-out above [Merge.max_period]:
   b·i ≥ p·n + q and a·i ≤ r·n + s, summing i^deg. *)
let floor_case_gen =
  QCheck.make
    ~print:(fun (a, b, (p, q, r, s), deg) ->
      Printf.sprintf "%d*i >= %d*n + %d, %d*i <= %d*n + %d, Σ i^%d" b p q a r
        s deg)
    QCheck.Gen.(
      map
        (fun ((a, b), pqrs, deg) ->
          ((if a * b <= Counting.Merge.max_period then a + 16 else a), b, pqrs,
           deg))
        (triple
           (pair (int_range 1 40) (int_range 1 40))
           (quad (int_range (-3) 3) (int_range (-20) 20) (int_range (-3) 3)
              (int_range (-20) 20))
           (int_range 0 2)))

let prop_floor_matches_brute =
  QCheck.Test.make ~name:"floor form = brute force" ~count:60 floor_case_gen
    (fun (a, b, (p, q, r, s), deg) ->
      let f =
        F.and_
          [
            F.geq (A.scale (z b) (v "i")) (A.add (A.scale (z p) (v "n")) (k q));
            F.leq (A.scale (z a) (v "i")) (A.add (A.scale (z r) (v "n")) (k s));
          ]
      in
      let poly = Qpoly.pow (Qpoly.var "i") deg in
      let value = E.sum ~vars:[ "i" ] f poly in
      List.for_all
        (fun n ->
          let env = env_of [ ("n", n) ] in
          Qnum.equal
            (E.brute_sum ~vars:[ "i" ] ~lo:(-60) ~hi:60 env f poly)
            (Counting.Value.eval env value))
        [ -10; -7; -1; 0; 3; 10 ])

(* Periods up to [Merge.max_period] keep splinter-then-merge: merged and
   unmerged answers are pinned byte for byte to the output before the
   floor form existed. *)
let e5b_sor =
  let module L = Loopapps.Loopnest in
  {
    L.loops =
      [
        L.loop "i" (k 2) (A.add_const (v "N") Zint.minus_one);
        L.loop "j" (k 2) (A.add_const (v "N") Zint.minus_one);
      ];
    guards = [];
    flops_per_iteration = 6;
    accesses =
      List.map
        (fun (di, dj) ->
          {
            L.array = "a";
            subscripts =
              [ A.add_const (v "i") (z di); A.add_const (v "j") (z dj) ];
          })
        [ (0, 0); (-1, 0); (1, 0); (0, -1); (0, 1) ];
  }

let pinned_literal =
  [
    ( "E6",
      "(sum : n - 1 >= 0 : 3/4*n^2 - 1/4*(n mod 2) + 1/2*n)",
      "(sum : n - 2 >= 0 && 2 | (n) : 3/4*n^2 + 1/2*n)\n\
       + (sum : n - 3 >= 0 && 2 | (n + 1) : 3/8*n^2 - 3/8)\n\
       + (sum : n - 1 >= 0 && 2 | (n + 1) : 3/8*n^2 + 1/2*n + 1/8)" );
    ( "rational35",
      "(sum : n - 1 >= 0 : 1/6*(n mod 3)^2 + 5/6*n^2 - 1/2*(n mod 3) + 1/2*n)",
      "(sum : n - 3 >= 0 && 3 | (n) : 5/6*n^2 + 1/2*n)\n\
       + (sum : n - 4 >= 0 && 3 | (n + 2) : 5/9*n^2 - 1/9*n - 4/9)\n\
       + (sum : n - 5 >= 0 && 3 | (n + 1) : 5/18*n^2 - 5/18*n - 5/9)\n\
       + (sum : n - 2 >= 0 && 3 | (n + 1) : 5/9*n^2 + 7/9*n + 2/9)\n\
       + (sum : n - 1 >= 0 && 3 | (n + 2) : 5/18*n^2 + 11/18*n + 1/9)" );
    ( "third",
      "(sum : n - 2 >= 0 : -1/3*(2n mod 3) + 2/3*n)",
      "(sum : n - 2 >= 0 && 3 | (2n) : 2/3*n)\n\
       + (sum : n - 2 >= 0 && 3 | (2n + 2) : 2/3*n - 1/3)\n\
       + (sum : n - 3 >= 0 && 3 | (2n + 1) : 2/3*n - 2/3)" );
  ]

let pinned_queries =
  [
    ("E6", "count { i, j : 1 <= i and j <= n and 2*i <= 3*j }");
    ("rational35", "count { i, j : 1 <= i and j <= n and 3*i <= 5*j }");
    ("third", "count { i : 1 <= i <= n and 3*i <= 2*n }");
  ]

let test_small_periods_pinned () =
  let both value =
    ( Counting.Value.to_string (Counting.Merge.merge_residues value),
      Counting.Value.to_string value )
  in
  let fresh f =
    Test_differential.reset_world ();
    both (f ())
  in
  List.iter
    (fun (name, merged, raw) ->
      let q = List.assoc name pinned_queries in
      Alcotest.(check (pair string string)) name (merged, raw)
        (fresh (fun () -> query q)))
    pinned_literal;
  (* "rational" is E6's text sent as a query; E6 proper is built as a
     formula, as the bench does. *)
  let _, e6_merged, e6_raw = List.hd pinned_literal in
  Alcotest.(check (pair string string)) "E6 formula" (e6_merged, e6_raw)
    (fresh (fun () ->
         E.count ~vars:[ "i"; "j" ]
           (F.and_
              [
                F.geq (v "i") (k 1);
                F.leq (v "j") (v "n");
                F.leq (A.scale Zint.two (v "i")) (A.scale (z 3) (v "j"));
              ])));
  (* E5b's two renderings are ~1 KB each: pinned by length and MD5. *)
  let digest s = (String.length s, Digest.to_hex (Digest.string s)) in
  let merged, raw =
    fresh (fun () ->
        Loopapps.Loopnest.cache_line_count e5b_sor ~array:"a" ~words:16
          ~base:1)
  in
  Alcotest.(check (pair int string)) "E5b merged"
    (972, "32703ac466d7d979d227696a7e957211") (digest merged);
  Alcotest.(check (pair int string)) "E5b unmerged"
    (965, "d1e167af63aec816b8107a1ac58e97d3") (digest raw)

(* Redundancy elimination runs in the convex phase only where some
   summation variable has a second lower or upper bound (Sec 4.4): it
   must still remove an implied second bound rather than split on it,
   and skipping it elsewhere must leave every answer as it was. *)
let test_redundancy_gate () =
  let off = { E.default with eliminate_redundant = false } in
  (* the splinter query: one bound pair per variable at every level, so
     no pass runs; its 97 pieces are pinned byte for byte *)
  Test_differential.reset_world ();
  let stats = E.new_stats () in
  let value =
    query ~stats "count { i, j : 1 <= i and j <= n and 97*i <= 101*j }"
  in
  Alcotest.(check (pair int int)) "splinter pieces" (97, 97)
    (stats.E.pieces, List.length value);
  let digest s = (String.length s, Digest.to_hex (Digest.string s)) in
  List.iter
    (fun (label, v) ->
      Alcotest.(check (pair int string)) label
        (14321, "be393cde6ac177450e2a3a3ebcb0dfb4")
        (digest (Counting.Value.to_string v)))
    [ ("splinter unmerged", value);
      ("splinter merged", Counting.Merge.merge_residues value) ];
  (* E1, the A1 ablation: 2 pieces and 1 bound split with the
     convex-phase pass and without it *)
  List.iter
    (fun (label, opts) ->
      let stats = E.new_stats () in
      let value =
        E.count ~opts ~stats ~vars:[ "i"; "j"; "kk" ] example1_formula
      in
      Alcotest.(check (triple int int int)) label (2, 1, 2)
        (stats.E.pieces, stats.E.bound_splits, List.length value))
    [ ("E1 with redundancy elimination", E.default);
      ("E1 without redundancy elimination", off) ];
  (* i <= 2n is implied by 1 <= i <= n: removed, not split on; the
     clause goes to the engine as is, past the DNF's own pass *)
  let i = v "i" and n = v "n" in
  let clause =
    Omega.Clause.make
      ~geqs:[ A.sub i (k 1); A.sub n i; A.sub (A.scale Zint.two n) i ]
      ()
  in
  let sum opts =
    let stats = E.new_stats () in
    let value = E.sum_clauses ~opts ~stats ~vars:[ "i" ] [ clause ] Qpoly.one in
    (stats.E.bound_splits, Counting.Value.to_string value)
  in
  Alcotest.(check (pair int string)) "implied second upper bound removed"
    (0, "(sum : n - 1 >= 0 : n)") (sum E.default);
  Alcotest.(check int) "ablation splits on it" 1 (fst (sum off));
  (* an infeasible clause is still cut where no pass runs: summed under
     the rational relaxation it would add a piece (differential seed
     169, whose upper bound would gain (sum : n + 2 >= 0 && -n - 1 >= 0
     : 1/6*n + 4/3)) *)
  let case = Test_differential.gen_case 169 in
  Test_differential.reset_world ();
  Alcotest.(check string) "infeasible inner clause cut" "(sum : n >= 0 : 4/3)"
    (Counting.Value.to_string
       (E.count
          ~opts:{ Test_differential.pugh with strategy = E.Upper }
          ~vars:case.Test_differential.vars case.Test_differential.formula));
  (* a parallel implied bound never reaches the engine *)
  let stats = E.new_stats () in
  let value = query ~stats "count { i : 1 <= i <= n and i <= n + 3 }" in
  Alcotest.(check (pair int string)) "i <= n + 3" (0, "(sum : n - 1 >= 0 : n)")
    (stats.E.bound_splits, Counting.Value.to_string value)

let suite =
  ( "counting",
    [
      Alcotest.test_case "E0 intro table" `Quick test_intro_table;
      Alcotest.test_case "E0b guarded vs naive (pitfall)" `Quick test_intro_guarded;
      Alcotest.test_case "E1 Tawbi example + ablation" `Quick test_example1;
      Alcotest.test_case "E2 HP93a example" `Quick test_example2;
      Alcotest.test_case "E3 HP93a example (n²)" `Quick test_example3;
      Alcotest.test_case "E4 FST91 distinct locations" `Quick test_example4;
      Alcotest.test_case "E6 parity example" `Quick test_example6;
      Alcotest.test_case "E6 symbolic strategy + merging" `Quick
        test_example6_symbolic_and_merge;
      Alcotest.test_case "polynomial sums" `Quick test_polynomial_sums;
      Alcotest.test_case "rational bounds (4.2.1)" `Quick test_rational_bounds;
      Alcotest.test_case "FST91 inclusion-exclusion" `Quick test_fst91;
      Alcotest.test_case "stride counting" `Quick test_stride_count;
      Alcotest.test_case "unbounded rejection" `Quick test_unbounded;
      QCheck_alcotest.to_alcotest prop_count_matches_brute;
      QCheck_alcotest.to_alcotest prop_sum_matches_brute;
      QCheck_alcotest.to_alcotest prop_merge_preserves;
      Alcotest.test_case "floor form: splinter query vs brute force" `Quick
        test_floor_splinter_query;
      Alcotest.test_case "floor form: two-sided 23/29/31/37" `Quick
        test_floor_two_sided;
      Alcotest.test_case "floor form: coefficient 1000003" `Quick
        test_floor_large_coefficient;
      QCheck_alcotest.to_alcotest prop_floor_matches_brute;
      Alcotest.test_case "periods <= max_period byte-identical" `Quick
        test_small_periods_pinned;
      Alcotest.test_case "redundancy elimination only where it can split"
        `Quick test_redundancy_gate;
    ] )
