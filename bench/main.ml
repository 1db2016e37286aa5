(* Benchmark harness: regenerates every table/figure-equivalent of the
   paper's evaluation (its worked examples and comparisons, per DESIGN.md
   §4) and times each with Bechamel.

   Output: first a "reproduction report" — the measured rows next to the
   paper's claims — then an OLS time-per-run table, one Test.make per
   experiment. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module E = Counting.Engine
module L = Loopapps.Loopnest
module J = Obs.Ojson

(* One bench JSON line: its label, then the fields in order. *)
let line label fields = J.Obj (("label", J.Str label) :: fields)

let v s = A.var (V.named s)
let k n = A.of_int n

let env_of l name =
  match List.assoc_opt name l with
  | Some x -> Zint.of_int x
  | None -> raise Not_found

let eval value l = Zint.to_int_exn (Counting.Value.eval_zint (env_of l) value)

(* ------------------------------------------------------------------ *)
(* Experiment definitions                                               *)

let intro_queries =
  [
    "count { i : 1 <= i <= 10 }";
    "count { i : 1 <= i <= n }";
    "count { i, j : 1 <= i <= n and 1 <= j <= n }";
    "count { i, j : 1 <= i < j <= n }";
  ]

let run_query q =
  let p = Preslang.parse_query q in
  E.sum ~vars:p.Preslang.vars p.Preslang.formula p.Preslang.summand

let pitfall = "count { i, j : 1 <= i <= n and i <= j <= m }"

let example1_formula =
  F.and_
    [
      F.between (k 1) (v "i") (v "n");
      F.between (k 1) (v "j") (v "i");
      F.between (v "j") (v "kk") (v "m");
    ]

let example2_formula =
  F.and_
    [
      F.between (k 1) (v "i") (v "n");
      F.between (k 3) (v "j") (v "i");
      F.between (v "j") (v "kk") (k 5);
    ]

let example3_formula =
  F.and_
    [
      F.between (k 1) (v "i") (A.scale Zint.two (v "n"));
      F.between (k 1) (v "j") (v "i");
      F.leq (A.add (v "i") (v "j")) (A.scale Zint.two (v "n"));
    ]

let example4_formula =
  F.exists
    [ V.named "i"; V.named "j" ]
    (F.and_
       [
         F.between (k 1) (v "i") (k 8);
         F.between (k 1) (v "j") (k 5);
         F.eq (v "x")
           (A.add_const
              (A.add (A.scale (Zint.of_int 6) (v "i"))
                 (A.scale (Zint.of_int 9) (v "j")))
              (Zint.of_int (-7)));
       ])

let example6_formula =
  F.and_
    [
      F.geq (v "i") (k 1);
      F.leq (v "j") (v "n");
      F.leq (A.scale Zint.two (v "i")) (A.scale (Zint.of_int 3) (v "j"));
    ]

let sor =
  {
    L.loops =
      [
        L.loop "i" (k 2) (A.add_const (v "N") Zint.minus_one);
        L.loop "j" (k 2) (A.add_const (v "N") Zint.minus_one);
      ];
    guards = [];
    flops_per_iteration = 6;
    accesses =
      [
        { L.array = "a"; subscripts = [ v "i"; v "j" ] };
        { L.array = "a"; subscripts = [ A.add_const (v "i") Zint.minus_one; v "j" ] };
        { L.array = "a"; subscripts = [ A.add_const (v "i") Zint.one; v "j" ] };
        { L.array = "a"; subscripts = [ v "i"; A.add_const (v "j") Zint.minus_one ] };
        { L.array = "a"; subscripts = [ v "i"; A.add_const (v "j") Zint.one ] };
      ];
  }

(* Differential seed 472: box [-4,4]^3, 3 | -2x - y - 3z - 1, and five
   dense rows. Kept in sync with test_differential.gen_dense_case by the
   D1 value check below (brute-force count over the box is 12). *)
let dense_simplex_formula =
  let geq cx cy cz c0 =
    F.geq
      (A.add_const
         (A.add
            (A.scale (Zint.of_int cx) (v "x"))
            (A.add
               (A.scale (Zint.of_int cy) (v "y"))
               (A.scale (Zint.of_int cz) (v "z"))))
         (Zint.of_int c0))
      A.zero
  in
  F.and_
    [
      F.between (k (-4)) (v "x") (k 4);
      F.between (k (-4)) (v "y") (k 4);
      F.between (k (-4)) (v "z") (k 4);
      F.stride (Zint.of_int 3)
        (A.add_const
           (A.add
              (A.scale (Zint.of_int (-2)) (v "x"))
              (A.add (A.scale Zint.minus_one (v "y"))
                 (A.scale (Zint.of_int (-3)) (v "z"))))
           Zint.minus_one);
      geq (-2) 4 3 (-1);
      geq 4 5 (-1) 10;
      geq (-2) 5 4 4;
      geq 3 (-5) 1 (-1);
      geq 1 2 (-1) 1;
    ]

(* Section 2.6 formula (the 12 ms simplification on a 1992 Sun SPARC). *)
let section26_formula =
  let i' = V.named "i'" in
  let ai' = A.var i' and ai = v "i" and an = v "n" in
  let not_ex parity =
    let i'' = V.named "i''" and jj = V.named "jj" in
    F.not_
      (F.exists [ i''; jj ]
         (F.and_
            [
              F.between (k 1) (A.var i'') (A.scale Zint.two an);
              F.between (k 1) (A.var jj) (A.add_const an Zint.minus_one);
              F.lt ai (A.var i'');
              F.eq ai' (A.var i'');
              (match parity with
              | `Even -> F.eq (A.scale Zint.two (A.var jj)) (A.var i'')
              | `Odd ->
                  F.eq
                    (A.add_const (A.scale Zint.two (A.var jj)) Zint.one)
                    (A.var i''));
            ]))
  in
  F.and_
    [
      F.between (k 1) ai (A.scale Zint.two an);
      F.between (k 1) ai' (A.scale Zint.two an);
      F.eq ai ai';
      not_ex `Even;
      not_ex `Odd;
    ]

(* Figure 1 system: ∃β. 0 ≤ 3β − α ≤ 7 ∧ 1 ≤ α − 2β ≤ 5. *)
let fig1_clause () =
  let beta = V.fresh_wild () in
  let ab = A.var beta and aa = v "alpha" in
  ( beta,
    Omega.Clause.make
      ~geqs:
        [
          A.sub (A.scale (Zint.of_int 3) ab) aa;
          A.sub (A.add_const aa (Zint.of_int 7)) (A.scale (Zint.of_int 3) ab);
          A.add_const (A.sub aa (A.scale Zint.two ab)) Zint.minus_one;
          A.sub (A.add_const aa (Zint.of_int 5)) (A.scale Zint.two ab);
        ]
      () )

(* Figure 1's projections as the paper draws them, pre-filter disarmed:
   armed, the disjoint projection also proves the third splinter
   (alpha = 4 with 3 | alpha) infeasible and drops it. *)
let fig1_project mode =
  let beta, cl = fig1_clause () in
  Omega.Prefilter.with_armed false (fun () ->
      Omega.Solve.project mode [ beta ] cl)

let overlap_boxes kk =
  List.init kk (fun t ->
      Omega.Clause.make
        ~geqs:
          [
            A.add_const (v "i") (Zint.of_int (-(3 * t)));
            A.sub (k ((3 * t) + 5)) (v "i");
          ]
        ())

(* ------------------------------------------------------------------ *)
(* Reproduction report                                                  *)

let report () =
  let line = String.make 72 '-' in
  Printf.printf "%s\nReproduction report (paper claim vs measured)\n%s\n" line line;

  Printf.printf "\n[E0] Introduction's table of sums:\n";
  List.iter
    (fun q ->
      let value = run_query q in
      Printf.printf "  %-48s = %s\n" q (Counting.Value.to_string value))
    intro_queries;

  Printf.printf "\n[E0b] Mathematica pitfall (%s):\n" pitfall;
  let guarded = run_query pitfall in
  let q = Preslang.parse_query pitfall in
  let naive =
    E.sum ~opts:Counting.Baselines.naive_opts ~vars:q.Preslang.vars
      q.Preslang.formula q.Preslang.summand
  in
  Printf.printf "  guarded   at (n=5,m=3): %d   (truth: 6)\n"
    (eval guarded [ ("n", 5); ("m", 3) ]);
  Printf.printf "  unguarded at (n=5,m=3): %d   (Mathematica-style, wrong)\n"
    (eval naive [ ("n", 5); ("m", 3) ]);

  Printf.printf "\n[E1] Example 1 (Tawbi): pieces ours vs fixed-order:\n";
  let ours = E.count ~vars:[ "i"; "j"; "kk" ] example1_formula in
  let tawbi =
    E.count ~opts:Counting.Baselines.tawbi_opts ~vars:[ "i"; "j"; "kk" ]
      example1_formula
  in
  Printf.printf "  flexible order: %d pieces (paper: 2)\n" (List.length ours);
  Printf.printf "  fixed order:    %d pieces (paper: 3)\n" (List.length tawbi);
  Printf.printf "  value at (n=10,m=7): %d = %d (both agree)\n"
    (eval ours [ ("n", 10); ("m", 7) ])
    (eval tawbi [ ("n", 10); ("m", 7) ]);

  Printf.printf "\n[E2] Example 2 (HP93a): paper 6n-16 for n>=5:\n";
  let e2 = E.count ~vars:[ "i"; "j"; "kk" ] example2_formula in
  Printf.printf "  at n=20: %d (expect 104); pieces: %d\n"
    (eval e2 [ ("n", 20) ])
    (List.length e2);

  Printf.printf "\n[E3] Example 3 (HP93a): paper n^2:\n";
  let e3 = E.count ~vars:[ "i"; "j" ] example3_formula in
  Printf.printf "  symbolic: %s\n" (Counting.Value.to_string e3);

  Printf.printf "\n[E4] Example 4 (FST91): paper 25 distinct locations:\n";
  let e4 = E.count ~vars:[ "x" ] example4_formula in
  Printf.printf "  measured: %s\n" (Counting.Value.to_string e4);

  Printf.printf "\n[E5a] Example 5 (SOR) memory: paper N^2-4, 249996 at N=500:\n";
  let mem = L.touched_count sor ~array:"a" in
  Printf.printf "  symbolic: %s\n" (Counting.Value.to_string mem);
  Printf.printf "  at N=500: %d\n" (eval mem [ ("N", 500) ]);

  Printf.printf "\n[E5b] Example 5 cache lines: paper 16000 at N=500:\n";
  let cl = L.cache_line_count sor ~array:"a" ~words:16 ~base:1 in
  Printf.printf "  at N=500: %d;  at N=17: %d (paper's form gives 32)\n"
    (eval cl [ ("N", 500) ])
    (eval cl [ ("N", 17) ]);

  Printf.printf "\n[E6] Example 6: paper (3n^2+2n-(n mod 2))/4:\n";
  let e6 =
    Counting.Merge.merge_residues (E.count ~vars:[ "i"; "j" ] example6_formula)
  in
  Printf.printf "  merged symbolic: %s\n" (Counting.Value.to_string e6);

  Printf.printf "\n[S26] Section 2.6 simplification (12 ms on a '92 SPARC):\n";
  let t0 = Unix.gettimeofday () in
  let cls = Omega.Dnf.of_formula section26_formula in
  let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Printf.printf "  simplified to %d clauses in %.1f ms on this machine\n"
    (List.length cls) dt;

  Printf.printf "\n[S33] HPF block-cyclic (8 procs, block 4):\n";
  let dist = { Loopapps.Hpf.procs = 8; block = 4 } in
  let own = Loopapps.Hpf.ownership_count dist ~proc:0 in
  Printf.printf "  proc 0 owns %d of T(0:1024) (expect 129)\n"
    (eval own [ ("n", 1025) ]);
  let msgs = Loopapps.Hpf.messages dist ~shift:1 in
  Printf.printf "  shift-1 messages at n=1025: %d\n" (eval msgs [ ("n", 1025) ]);

  Printf.printf "\n[F1] Figure 1: disjoint vs overlapping splintering:\n";
  let over = fig1_project Omega.Solve.Exact_overlapping in
  let disj = fig1_project Omega.Solve.Exact_disjoint in
  Printf.printf "  overlapping: %d clauses; disjoint: %d clauses\n"
    (List.length over) (List.length disj);
  Printf.printf "  disjointness verified: %b\n"
    (Omega.Disjoint.pairwise_disjoint disj);

  Printf.printf "\n[A3] FST91 inclusion-exclusion vs disjoint DNF (k boxes):\n";
  List.iter
    (fun kk ->
      let boxes = overlap_boxes kk in
      let _, summations =
        Counting.Baselines.fst91_sum ~vars:[ "i" ] boxes Qpoly.one
      in
      let d = Omega.Disjoint.to_disjoint boxes in
      Printf.printf "  k=%d: FST91 %2d summations; disjoint DNF %d clauses\n" kk
        summations (List.length d))
    [ 2; 3; 4; 5 ];

  Printf.printf "\n[A4] Stencil summarization:\n";
  List.iter
    (fun (name, offsets) ->
      match Loopapps.Stencil.hull_summary offsets with
      | Some _ -> Printf.printf "  %-10s hull+lattice exact\n" name
      | None -> Printf.printf "  %-10s falls back to 0-1 encoding\n" name)
    [
      ("4-point", [ [| 0; 0 |]; [| 1; 0 |]; [| 0; 1 |]; [| 1; 1 |] ]);
      ("5-point", [ [| 0; 0 |]; [| -1; 0 |]; [| 1; 0 |]; [| 0; -1 |]; [| 0; 1 |] ]);
      ( "9-point",
        List.concat_map
          (fun a -> List.map (fun b -> [| a; b |]) [ -1; 0; 1 ])
          [ -1; 0; 1 ] );
    ];

  Printf.printf "\n[A5] Approximate counting, sum_{i=1}^{floor(n/3)} i at n=20:\n";
  let f =
    F.and_
      [ F.geq (v "i") (k 1); F.leq (A.scale (Zint.of_int 3) (v "i")) (v "n") ]
  in
  let body = Qpoly.var "i" in
  let exact = E.sum ~vars:[ "i" ] f body in
  let upper =
    E.sum ~opts:{ E.default with strategy = E.Upper } ~vars:[ "i" ] f body
  in
  let lower =
    E.sum ~opts:{ E.default with strategy = E.Lower } ~vars:[ "i" ] f body
  in
  let at20 value = Counting.Value.eval (env_of [ ("n", 20) ]) value in
  Printf.printf "  lower=%s exact=%s upper=%s\n"
    (Qnum.to_string (at20 lower))
    (Qnum.to_string (at20 exact))
    (Qnum.to_string (at20 upper));

  Printf.printf "\n[A6] Approximate DNF simplification (Sec 4.6):\n";
  let fq =
    F.and_
      [
        F.between (k 0) (v "x") (v "n");
        F.exists
          [ V.named "t" ]
          (F.eq (v "x") (A.add_const (A.scale (Zint.of_int 3) (v "t")) Zint.two));
      ]
  in
  let e = E.count ~vars:[ "x" ] fq in
  let u = E.count ~opts:{ E.default with strategy = E.Upper } ~vars:[ "x" ] fq in
  let l = E.count ~opts:{ E.default with strategy = E.Lower } ~vars:[ "x" ] fq in
  let at n value = Counting.Value.eval (env_of [ ("n", n) ]) value in
  Printf.printf
    "  |{x in [0,n] : x = 2 mod 3}| at n=20: dark<=exact<=real: %s <= %s <= %s\n"
    (Qnum.to_string (at 20 l))
    (Qnum.to_string (at 20 e))
    (Qnum.to_string (at 20 u));

  Printf.printf "\n[A1/A2] Ablations (Example 1 engine statistics):\n";
  let stats_flex = E.new_stats () in
  ignore (E.count ~stats:stats_flex ~vars:[ "i"; "j"; "kk" ] example1_formula);
  let stats_nored = E.new_stats () in
  ignore
    (E.count
       ~opts:{ E.default with eliminate_redundant = false }
       ~stats:stats_nored ~vars:[ "i"; "j"; "kk" ] example1_formula);
  Printf.printf
    "  with redundancy elim: %d pieces, %d bound splits; without: %d pieces, %d bound splits\n"
    stats_flex.E.pieces stats_flex.E.bound_splits stats_nored.E.pieces
    stats_nored.E.bound_splits;
  Printf.printf "%s\n\n" line

(* ------------------------------------------------------------------ *)
(* Reproduction checks: every paper-experiment value from EXPERIMENTS.md
   recomputed and compared byte-for-byte. `--check` turns a drift in any
   measured value (symbolic string or evaluated point) into a nonzero
   exit, which is what the CI bench-smoke step gates on.                 *)

let check_results () : (string * string * string) list =
  let sym value = Counting.Value.to_string value in
  let e1 = E.count ~vars:[ "i"; "j"; "kk" ] example1_formula in
  let e1_tawbi =
    E.count ~opts:Counting.Baselines.tawbi_opts ~vars:[ "i"; "j"; "kk" ]
      example1_formula
  in
  let e2 = E.count ~vars:[ "i"; "j"; "kk" ] example2_formula in
  let e5a = L.touched_count sor ~array:"a" in
  let e5b = L.cache_line_count sor ~array:"a" ~words:16 ~base:1 in
  let e6 =
    Counting.Merge.merge_residues (E.count ~vars:[ "i"; "j" ] example6_formula)
  in
  let over = fig1_project Omega.Solve.Exact_overlapping in
  let disj = fig1_project Omega.Solve.Exact_disjoint in
  let a3 kk =
    let boxes = overlap_boxes kk in
    let _, summations =
      Counting.Baselines.fst91_sum ~vars:[ "i" ] boxes Qpoly.one
    in
    (summations, List.length (Omega.Disjoint.to_disjoint boxes))
  in
  [
    ( "E0 count 1..10",
      "(10)",
      sym (run_query "count { i : 1 <= i <= 10 }") );
    ( "E0 count 1..n",
      "(sum : n - 1 >= 0 : n)",
      sym (run_query "count { i : 1 <= i <= n }") );
    ( "E0 count square",
      "(sum : n - 1 >= 0 : n^2)",
      sym (run_query "count { i, j : 1 <= i <= n and 1 <= j <= n }") );
    ( "E0 count triangular",
      "(sum : n - 2 >= 0 : 1/2*n^2 - 1/2*n)",
      sym (run_query "count { i, j : 1 <= i < j <= n }") );
    ( "E0b guarded at (5,3)",
      "6",
      string_of_int (eval (run_query pitfall) [ ("n", 5); ("m", 3) ]) );
    ("E1 pieces flexible", "2", string_of_int (List.length e1));
    ("E1 pieces fixed-order", "3", string_of_int (List.length e1_tawbi));
    ( "E1 value at (10,7)",
      "224",
      string_of_int (eval e1 [ ("n", 10); ("m", 7) ]) );
    ("E2 at n=20", "104", string_of_int (eval e2 [ ("n", 20) ]));
    ("E2 pieces", "2", string_of_int (List.length e2));
    ( "E3 symbolic",
      "(sum : n - 1 >= 0 : n^2)",
      sym (E.count ~vars:[ "i"; "j" ] example3_formula) );
    ("E4 symbolic", "(25)", sym (E.count ~vars:[ "x" ] example4_formula));
    ("E5a symbolic", "(sum : N - 3 >= 0 : N^2 - 4)", sym e5a);
    ("E5a at N=500", "249996", string_of_int (eval e5a [ ("N", 500) ]));
    ("E5b at N=500", "16000", string_of_int (eval e5b [ ("N", 500) ]));
    ("E5b at N=17", "32", string_of_int (eval e5b [ ("N", 17) ]));
    ( "E6 merged symbolic",
      "(sum : n - 1 >= 0 : 3/4*n^2 - 1/4*(n mod 2) + 1/2*n)",
      sym e6 );
    ( "S26 clause count",
      "12",
      string_of_int (List.length (Omega.Dnf.of_formula section26_formula)) );
    ( "S33 proc-0 ownership at n=1025",
      "129",
      string_of_int
        (eval
           (Loopapps.Hpf.ownership_count
              { Loopapps.Hpf.procs = 8; block = 4 }
              ~proc:0)
           [ ("n", 1025) ]) );
    ("F1 overlapping clauses", "3", string_of_int (List.length over));
    ("F1 disjoint clauses", "3", string_of_int (List.length disj));
    ( "F1 disjointness",
      "true",
      string_of_bool (Omega.Disjoint.pairwise_disjoint disj) );
    ( "A3 FST91 summations k=2..5",
      "3,7,15,31",
      String.concat ","
        (List.map (fun kk -> string_of_int (fst (a3 kk))) [ 2; 3; 4; 5 ]) );
    ( "D1 dense simplex count",
      "(12)",
      sym (E.count ~vars:[ "x"; "y"; "z" ] dense_simplex_formula) );
    ( "A3 disjoint clauses k=2..5",
      "2,3,3,4",
      String.concat ","
        (List.map (fun kk -> string_of_int (snd (a3 kk))) [ 2; 3; 4; 5 ]) );
  ]

(* Every committed BENCH_*.json must open with a [_meta] line recording
   at least the machine's [cores_available] and the [jobs] setting the
   figures were taken at — without them a wall-clock line cannot be
   interpreted. `--check` fails on a bench file missing them. *)
let check_bench_meta () =
  let files =
    Sys.readdir "." |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  let ok_file f =
    let ic = open_in f in
    let first = try input_line ic with End_of_file -> "" in
    close_in ic;
    let ok =
      match J.parse first with
      | Ok meta ->
          J.member "label" meta = Some (J.Str "_meta")
          && Option.bind (J.member "cores_available" meta) J.to_int <> None
          && Option.bind (J.member "jobs" meta) J.to_int <> None
      | Error _ -> false
    in
    if not ok then
      Printf.printf
        "  BAD META %s: first line must be a _meta object with integer \
         cores_available and jobs\n"
        f;
    ok
  in
  let bad = List.filter (fun f -> not (ok_file f)) files in
  Printf.printf "Bench meta check: %d/%d BENCH_*.json files carry full _meta\n"
    (List.length files - List.length bad)
    (List.length files);
  bad = []

let run_checks () =
  let rows = check_results () in
  let failures =
    List.filter (fun (_, expected, actual) -> expected <> actual) rows
  in
  Printf.printf "Reproduction check: %d/%d values match EXPERIMENTS.md\n"
    (List.length rows - List.length failures)
    (List.length rows);
  List.iter
    (fun (label, expected, actual) ->
      Printf.printf "  MISMATCH %-28s expected %s, measured %s\n" label
        expected actual)
    failures;
  let meta_ok = check_bench_meta () in
  failures = [] && meta_ok

(* ------------------------------------------------------------------ *)
(* Micro-suite: the arithmetic substrate in isolation. Values are kept
   in the native-int range on purpose — these loops measure the cost of
   the common case (constraint coefficients and quasi-polynomial
   rationals are almost always word-sized), which is exactly what the
   small-integer fast path targets.                                     *)

let micro_iters = 20_000

let micro_zint () =
  let acc = ref Zint.zero in
  for i = 1 to micro_iters do
    let a = Zint.of_int ((i mod 97) - 48) in
    let b = Zint.of_int (((i * 7) mod 89) + 1) in
    acc := Zint.add !acc (Zint.mul a b);
    acc := Zint.sub !acc (Zint.gcd a b);
    let q, r = Zint.fdiv_rem !acc b in
    if Zint.compare q r > 0 then acc := Zint.add !acc Zint.one;
    ignore (Zint.hash !acc)
  done;
  ignore !acc

let micro_qnum () =
  let acc = ref Qnum.zero in
  for i = 1 to micro_iters / 4 do
    (* integral fast path ... *)
    acc := Qnum.add !acc (Qnum.of_int (i mod 1000));
    (* ... and genuine fractions with small denominators *)
    acc := Qnum.add !acc (Qnum.of_ints i ((i mod 7) + 1));
    acc := Qnum.mul !acc Qnum.one
  done;
  ignore (Qnum.compare !acc Qnum.zero)

let micro_affine () =
  let x = v "x" and y = v "y" in
  let acc = ref A.zero in
  for i = 1 to micro_iters / 4 do
    let t =
      A.add
        (A.scale (Zint.of_int ((i mod 5) - 2)) x)
        (A.add_const (A.scale (Zint.of_int ((i mod 3) - 1)) y) (Zint.of_int i))
    in
    acc := A.add !acc t;
    ignore (A.hash t);
    if A.equal t !acc then acc := A.zero
  done;
  ignore (A.intern !acc)

let micro_experiments : (string * (string * string) list * (unit -> unit)) list
    =
  [
    ("micro_zint_small", [ ("kind", "micro") ], micro_zint);
    ("micro_qnum_small", [ ("kind", "micro") ], micro_qnum);
    ("micro_affine_small", [ ("kind", "micro") ], micro_affine);
  ]

(* ------------------------------------------------------------------ *)
(* Instrumented runs: one JSON line per experiment (cache hit/miss,
   per-phase wall time, GC allocation deltas, engine counters), then a
   memoization-ablation line comparing executed eliminations with the
   memo on and off.                                                     *)

(* Each experiment carries its configuration as labelled fields, recorded
   in the JSON line's "options" object so trajectory files are
   self-describing (no out-of-band knowledge of what each label ran). *)
let engine_meta = E.opts_fields E.default @ [ ("memo", "on") ]

(* Single-formula engine experiments carry the query fingerprint in
   their options object — the join key shared with report cards,
   [omcount --stats], and [--explain-plan] output. *)
let fingerprinted =
  [
    ("E1_example1", ([ "i"; "j"; "kk" ], example1_formula));
    ("E2_example2", ([ "i"; "j"; "kk" ], example2_formula));
    ("E4_example4", ([ "x" ], example4_formula));
    ("E6_example6", ([ "i"; "j" ], example6_formula));
  ]

let fingerprint_of label =
  Option.map
    (fun (vars, f) ->
      Counting.Telemetry.fingerprint ~vars ~summand:Qpoly.one f)
    (List.assoc_opt label fingerprinted)

(* `--certify FILE`: one certificate line per fingerprinted formula,
   produced by a separate untimed pass (a cold-cache run of the shared
   query runner), so the timed experiments above are never
   perturbed. CI replays the file with omcheck. Each certificate carries
   one evaluation point (the same points the reproduction check uses)
   so the checker re-derives a concrete count, not just the pieces. *)
let certify_ats label =
  let z = Zint.of_int in
  match label with
  | "E1_example1" -> [ [ ("n", z 10); ("m", z 7) ] ]
  | "E2_example2" -> [ [ ("n", z 20) ] ]
  | "E6_example6" -> [ [ ("n", z 100) ] ]
  | _ -> [ [] ]

let certify_report file =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  (* untimed, so off the card stream: the sink holds only the timed
     experiments' cards *)
  let sink = Counting.Telemetry.file () in
  Counting.Telemetry.set_file None;
  Fun.protect
    ~finally:(fun () ->
      close_out oc;
      Counting.Telemetry.set_file sink)
    (fun () ->
      List.iter
        (fun (label, (vars, formula)) ->
          Omega.Memo.clear_all ();
          let r =
            Counting.Query.run ~label ~opts:E.default
              ~budget:Counting.Governor.unlimited ~merge:false ~certify:true
              ~instr:false ~evals:(certify_ats label) ~at:[] ~source:label
              ~vars ~summand:Qpoly.one formula
          in
          output_string oc
            (Obs.Ojson.render (Option.get r.Counting.Query.certificate));
          output_char oc '\n')
        fingerprinted)

let instr_experiments : (string * (string * string) list * (unit -> unit)) list
    =
  [
    ( "E0_intro_table",
      engine_meta,
      fun () -> List.iter (fun q -> ignore (run_query q)) intro_queries );
    ( "E1_example1",
      engine_meta,
      fun () -> ignore (E.count ~vars:[ "i"; "j"; "kk" ] example1_formula) );
    ( "E2_example2",
      engine_meta,
      fun () -> ignore (E.count ~vars:[ "i"; "j"; "kk" ] example2_formula) );
    ( "E4_example4",
      engine_meta,
      fun () -> ignore (E.count ~vars:[ "x" ] example4_formula) );
    ( "E6_example6",
      engine_meta,
      fun () ->
        ignore
          (Counting.Merge.merge_residues
             (E.count ~vars:[ "i"; "j" ] example6_formula)) );
    ( "S26_simplify",
      [ ("mode", "dnf_overlapping"); ("memo", "on") ],
      fun () -> ignore (Omega.Dnf.of_formula section26_formula) );
    ( "F1_fig1_splinter",
      [ ("mode", "project_exact"); ("memo", "on") ],
      fun () ->
        let beta, cl = fig1_clause () in
        ignore (Omega.Solve.project Omega.Solve.Exact_overlapping [ beta ] cl);
        let beta2, cl2 = fig1_clause () in
        ignore (Omega.Solve.project Omega.Solve.Exact_disjoint [ beta2 ] cl2) );
    ( "S33_hpf_ownership",
      engine_meta,
      fun () ->
        ignore
          (Loopapps.Hpf.ownership_count
             { Loopapps.Hpf.procs = 8; block = 4 }
             ~proc:0) );
  ]

let instr_report emit =
  Printf.printf "Instrumented runs (cold caches, one JSON line each):\n";
  (* One throwaway run absorbs process cold-start (code paging, weak-table
     growth, lazy initializers) so the first measured experiment is not
     charged for it; the memo tables are cleared again before each
     measured run, which is what "cold caches" promises. *)
  (match instr_experiments with
  | (_, _, f) :: _ ->
      f ();
      Omega.Memo.clear_all ()
  | [] -> ());
  let on_elims =
    (* the instrumented run below is itself a cold memo-on run, so its
       eliminations counter doubles as the ablation "on" figure *)
    List.map
      (fun (label, meta, f) ->
        (* Each experiment is deterministic, so every rep reports the same
           counters and allocation words; only wall time is noisy at the
           sub-millisecond scale.  Run a few cold-cache reps and keep the
           fastest, the standard best-of-k defence against scheduler
           jitter. *)
        let reps = 5 in
        let meta =
          match fingerprint_of label with
          | Some fp -> meta @ [ ("fingerprint", fp) ]
          | None -> meta
        in
        let best = ref None in
        for _ = 1 to reps do
          Omega.Memo.clear_all ();
          let (), r = E.with_instr ~label ~meta f in
          match !best with
          | Some b when b.Counting.Instr.wall_s <= r.Counting.Instr.wall_s ->
              ()
          | _ -> best := Some r
        done;
        let r = Option.get !best in
        emit (Counting.Instr.to_ojson r);
        (* With a telemetry sink armed (`--telemetry FILE`) the formula
           experiments also emit a full report card, giving CI a
           schema-validation corpus straight from the bench smoke. *)
        (match List.assoc_opt label fingerprinted with
        | Some (vars, formula) when Counting.Telemetry.enabled () ->
            Counting.Telemetry.record
              (Counting.Telemetry.build ~label ~opts:E.default ~vars
                 ~summand:Qpoly.one ~outcome:Counting.Telemetry.Complete
                 ~report:r formula)
        | _ -> ());
        (label, r.Counting.Instr.memo.Omega.Memo.eliminations))
      (instr_experiments @ micro_experiments)
  in
  (* Memo ablation: executed elimination bodies with the tables off vs
     on (cold), per experiment.  E4 and S33 are excluded: their
     elimination counts are dominated by the engine's per-equality
     eliminate_via_eq calls, which are inherently uncacheable (each call
     sees a fresh wildcard), so the off-run just doubles bench time to
     report a ~0% reduction — their instrumented lines above still carry
     the full cache counters. *)
  let ablatable =
    List.filter
      (fun (label, _, _) ->
        label <> "E4_example4" && label <> "S33_hpf_ownership"
        && label <> "F1_fig1_splinter")
      instr_experiments
  in
  Omega.Memo.set_enabled false;
  List.iter
    (fun (label, _, f) ->
      Omega.Memo.clear_all ();
      let before = Omega.Memo.(snapshot ()).eliminations in
      f ();
      let off = Omega.Memo.((snapshot ()).eliminations) - before in
      let on = List.assoc label on_elims in
      let reduction_pct =
        if off = 0 then 0.
        else 100. *. float_of_int (off - on) /. float_of_int off
      in
      emit
        (line ("memo_ablation_" ^ label)
           [
             ("eliminations_off", J.int off);
             ("eliminations_on", J.int on);
             ("reduction_pct", J.fixed 1 reduction_pct);
           ]))
    ablatable;
  Omega.Memo.set_enabled true

(* ------------------------------------------------------------------ *)
(* Serial vs parallel                                                   *)

(* The multi-clause / multi-splinter experiments, timed cold at jobs = 1
   and again at the configured parallel jobs count (defaulting to 4 when
   the harness runs with the pool disabled). Best-of-k wall time; the
   counted values are byte-identical by construction, so only time is
   compared. On a single-core machine the "speedup" honestly records the
   pool's overhead (≤ 1×). *)
let par_experiments =
  List.filter
    (fun (label, _, _) ->
      List.mem label [ "E4_example4"; "E6_example6"; "S33_hpf_ownership" ])
    instr_experiments

let time_best ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    Omega.Memo.clear_all ();
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let par_report emit =
  let saved = Counting.Pool.jobs () in
  let par_jobs = if saved > 1 then saved else 4 in
  Printf.printf
    "Serial vs parallel (cold caches, best of 3, %d cores available):\n"
    (Domain.recommended_domain_count ());
  List.iter
    (fun (label, _, f) ->
      Counting.Pool.set_jobs 1;
      let serial_s = time_best ~reps:3 f in
      Counting.Pool.set_jobs par_jobs;
      let parallel_s = time_best ~reps:3 f in
      Counting.Pool.set_jobs saved;
      emit
        (line ("par_compare_" ^ label)
           [
             ("jobs", J.int par_jobs);
             ("serial_s", J.fixed 6 serial_s);
             ("parallel_s", J.fixed 6 parallel_s);
             ("par_speedup", J.fixed 2 (serial_s /. parallel_s));
           ]))
    par_experiments

(* ------------------------------------------------------------------ *)
(* Counting-backend comparison (Engine.backend): the Pugh splintering
   engine vs the generating-function backend vs the planner's per-clause
   Auto routing. Three workloads with three distinct morals:
   - E4 (FST91 distinct locations): the full query is dominated by
     quantifier elimination, which no counting backend touches — the
     full-count line records backend neutrality, and a second line times
     the clause-summation phase alone (DNF precomputed), which is the
     phase the backend owns and where Auto's dispatch wins.
   - S33 (HPF ownership): symbolic in [n], so gfcount legitimately
     falls back to Pugh on every clause — the line pins "Auto never
     regresses" on a workload it cannot help.
   - D1 (dense simplex; differential seed 472 inlined verbatim):
     quantifier-free, one mod-3 stride, five dense inequalities. Pugh's
     residue splintering multiplies across the large coefficients while
     the cone decomposition stays polynomial — the headline gap.
   Every line also asserts that the three backends render byte-identical
   values (the drop-in guarantee); a mismatch aborts the bench run. *)

(* The three sides of one comparison, interleaved rep by rep so that
   slow drift over the measurement window (heap growth, CPU frequency)
   hits all sides equally instead of penalizing whichever is timed
   last. *)
let time_interleaved ~reps fs =
  let best = Array.make (List.length fs) infinity in
  for _ = 1 to reps do
    List.iteri
      (fun i f ->
        Omega.Memo.clear_all ();
        let t0 = Unix.gettimeofday () in
        f ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < best.(i) then best.(i) <- dt)
      fs
  done;
  Array.to_list best

let backends = [ ("pugh", E.Pugh); ("gf", E.Gf); ("auto", E.Auto) ]

let backend_experiments =
  [
    ( "backend_compare_E4",
      3,
      fun backend ->
        E.count ~opts:{ E.default with backend } ~vars:[ "x" ] example4_formula
    );
    ( "backend_compare_E4_sumphase",
      25,
      (let cls = lazy (E.to_clauses example4_formula) in
       fun backend ->
         E.sum_clauses
           ~opts:{ E.default with backend }
           ~vars:[ "x" ] (Lazy.force cls) Qpoly.one) );
    ( "backend_compare_S33",
      3,
      fun backend ->
        Loopapps.Hpf.ownership_count
          ~opts:{ E.default with backend }
          { Loopapps.Hpf.procs = 8; block = 4 }
          ~proc:0 );
    ( "backend_compare_D1_dense",
      1,
      fun backend ->
        E.count
          ~opts:{ E.default with backend }
          ~vars:[ "x"; "y"; "z" ] dense_simplex_formula );
  ]

let backend_report emit =
  Printf.printf
    "Backend comparison (cold caches, interleaved best-of-k, jobs pinned 1):\n";
  let saved = Counting.Pool.jobs () in
  Counting.Pool.set_jobs 1;
  Fun.protect ~finally:(fun () -> Counting.Pool.set_jobs saved) @@ fun () ->
  List.iter
    (fun (label, reps, f) ->
      (* byte-identity first: the values the timed runs recompute *)
      let rendered =
        List.map
          (fun (bname, b) ->
            Omega.Memo.clear_all ();
            (bname, Counting.Value.to_string (f b)))
          backends
      in
      let reference = List.assoc "pugh" rendered in
      List.iter
        (fun (bname, s) ->
          if not (String.equal reference s) then
            failwith
              (Printf.sprintf "%s: backend %s output differs from pugh" label
                 bname))
        rendered;
      match
        time_interleaved ~reps
          (List.map (fun (_, b) () -> ignore (f b)) backends)
      with
      | [ pugh_s; gf_s; auto_s ] ->
          emit
            (line label
               [
                 ("pugh_s", J.fixed 6 pugh_s);
                 ("gf_s", J.fixed 6 gf_s);
                 ("auto_s", J.fixed 6 auto_s);
                 ("auto_speedup", J.fixed 2 (pugh_s /. auto_s));
                 ("identical", J.Bool true);
               ])
      | _ -> assert false)
    backend_experiments

(* ------------------------------------------------------------------ *)
(* Planner comparison: a reference run (pre-filter disarmed, every
   clause through Pugh — the pipeline without its gf routing and
   probes) vs the default pipeline (cost-model planner, gf routing by
   [backend = Auto], bounded feasibility pre-filter armed). The JSON
   fields keep their historical names: [static_s] is the reference,
   [adaptive_s] the default pipeline. Three workloads:
   - S33 (HPF ownership): the splinter-heavy tail — disjoint elimination
     expands ~462k pin candidates of which 4 survive; the pre-filter's
     interval clamp collapses the pin loop, the tentpole win.
   - E4 (FST91 distinct locations): quantifier elimination dominated,
     records that adaptive planning never regresses a workload it cannot
     help much.
   - D1 (dense simplex, differential seed 472): quantifier-free with
     large coefficients; the planner routes the clause to the gf backend.
   Byte-identity of the two runs is asserted before timing; the default
   run's planner counters (probes, refutations, pruned work) ride along
   in each JSON line. *)

let planner_experiments =
  [
    ( "planner_compare_S33",
      3,
      fun opts ->
        Loopapps.Hpf.ownership_count ~opts
          { Loopapps.Hpf.procs = 8; block = 4 }
          ~proc:0 );
    ( "planner_compare_E4",
      3,
      fun opts -> E.count ~opts ~vars:[ "x" ] example4_formula );
    ( "planner_compare_D1_dense",
      1,
      fun opts -> E.count ~opts ~vars:[ "x"; "y"; "z" ] dense_simplex_formula );
  ]

let planner_reference f =
  Omega.Prefilter.with_armed false (fun () ->
      f { E.default with backend = E.Pugh })

(* Planner counter deltas recorded in each planner_compare line, with the
   metric-registry prefix stripped for flat JSON field names. *)
let planner_counter_keys =
  [
    ("planner.probes", "probes");
    ("planner.probe_refuted", "probe_refuted");
    ("planner.pruned_pins", "pruned_pins");
    ("planner.pruned_branches", "pruned_branches");
    ("planner.adaptive_clauses", "adaptive_clauses");
    ("engine.gf_clauses", "gf_clauses");
  ]

let planner_report emit =
  Printf.printf
    "Planner comparison (disarmed pugh reference vs default pipeline, cold \
     caches, interleaved best-of-k, jobs pinned 1):\n";
  let saved = Counting.Pool.jobs () in
  Counting.Pool.set_jobs 1;
  Fun.protect ~finally:(fun () -> Counting.Pool.set_jobs saved) @@ fun () ->
  List.iter
    (fun (label, reps, f) ->
      (* byte-identity first: the values the timed runs recompute *)
      Omega.Memo.clear_all ();
      let reference_v = Counting.Value.to_string (planner_reference f) in
      Omega.Memo.clear_all ();
      let before = Obs.Metrics.snapshot () in
      let pipeline_v = Counting.Value.to_string (f E.default) in
      let deltas = Obs.Metrics.diff (Obs.Metrics.snapshot ()) before in
      if not (String.equal reference_v pipeline_v) then
        failwith
          (Printf.sprintf "%s: pipeline output differs from the reference"
             label);
      let counters =
        List.filter_map
          (fun (key, field) ->
            match List.assoc_opt key deltas with
            | Some (Obs.Metrics.Count n) -> Some (field, J.int n)
            | _ -> None)
          planner_counter_keys
      in
      match
        time_interleaved ~reps
          [
            (fun () -> ignore (planner_reference f));
            (fun () -> ignore (f E.default));
          ]
      with
      | [ reference_s; pipeline_s ] ->
          emit
            (line label
               ([
                  ("static_s", J.fixed 6 reference_s);
                  ("adaptive_s", J.fixed 6 pipeline_s);
                  ("adaptive_speedup", J.fixed 2 (reference_s /. pipeline_s));
                  ("identical", J.Bool true);
                ]
               @ counters))
      | _ -> assert false)
    planner_experiments

(* Governor overhead on the two heaviest paper experiments. The budget
   checkpoints are always compiled in, so the baseline (plain
   [Engine.count], no control block — every check is one atomic load)
   is compared against a governed run with no limits (control block
   installed, fuel unlimited, no deadline so no clock reads) and a
   governed run with generous finite limits (fuel countdown plus a
   deadline poll at every charge) that never trips. All three compute
   identical values. *)
let governor_overhead_experiments =
  [
    ( "E4",
      fun opts ->
        match
          Counting.Governor.count ?budget:opts ~vars:[ "x" ] example4_formula
        with
        | Counting.Governor.Complete _ -> ()
        | Counting.Governor.Partial _ ->
            failwith "governor_overhead: unexpected partial" );
    ( "E6",
      fun opts ->
        match
          Counting.Governor.count ?budget:opts ~vars:[ "i"; "j" ]
            example6_formula
        with
        | Counting.Governor.Complete v ->
            ignore (Counting.Merge.merge_residues v)
        | Counting.Governor.Partial _ ->
            failwith "governor_overhead: unexpected partial" );
  ]

let generous_budget =
  {
    Counting.Governor.deadline_ms = Some 600_000;
    fuel = Some 50_000_000;
    max_fanout = Some 1_000_000;
    max_clauses = Some 1_000_000;
  }

let baseline_experiments =
  [
    ("E4", fun () -> ignore (E.count ~vars:[ "x" ] example4_formula));
    ( "E6",
      fun () ->
        ignore
          (Counting.Merge.merge_residues
             (E.count ~vars:[ "i"; "j" ] example6_formula)) );
  ]

let governor_report emit =
  Printf.printf "Governor overhead (cold caches, interleaved best of 9):\n";
  List.iter
    (fun (label, gov) ->
      let base = List.assoc label baseline_experiments in
      let baseline_s, unlimited_s, budget_s =
        match
          time_interleaved ~reps:9
            [ base; (fun () -> gov None); (fun () -> gov (Some generous_budget)) ]
        with
        | [ a; b; c ] -> (a, b, c)
        | _ -> assert false
      in
      let pct x = (x /. baseline_s -. 1.) *. 100. in
      emit
        (line ("governor_overhead_" ^ label)
           [
             ("baseline_s", J.fixed 6 baseline_s);
             ("governed_unlimited_s", J.fixed 6 unlimited_s);
             ("governed_budget_s", J.fixed 6 budget_s);
             ("overhead_unlimited_pct", J.fixed 2 (pct unlimited_s));
             ("overhead_budget_pct", J.fixed 2 (pct budget_s));
           ]))
    governor_overhead_experiments

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the disabled path (sink off, log off — the
   production default, and what omcount runs without --stats/--telemetry)
   vs instrumentation collection alone (the --stats cost) vs the full
   card pipeline (collection + card assembly + JSON render + append to a
   sink file, log level Info). The E6 workload is the same expression as
   BENCH_5's governor_overhead_E6 baseline, so disabled_s is directly
   comparable across trajectory files — "telemetry disabled costs
   nothing" is checked against history, and the alloc-guard test pins
   the same claim in allocation words. Byte-identity of the counted
   value across all three sides is asserted before timing. *)

let telemetry_experiments =
  [
    ( "E4",
      [ "x" ],
      example4_formula,
      fun () -> ignore (E.count ~vars:[ "x" ] example4_formula) );
    ( "E6",
      [ "i"; "j" ],
      example6_formula,
      fun () ->
        ignore
          (Counting.Merge.merge_residues
             (E.count ~vars:[ "i"; "j" ] example6_formula)) );
  ]

let telemetry_report emit =
  Printf.printf "Telemetry overhead (cold caches, interleaved best of 9):\n";
  let tmp = Filename.temp_file "omega_bench_telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Counting.Telemetry.set_file None;
      Obs.Log.set_level None;
      try Sys.remove tmp with Sys_error _ -> ())
  @@ fun () ->
  List.iter
    (fun (label, vars, formula, run) ->
      (* byte-identity first: enabling telemetry + logging must not
         change the counted value *)
      Omega.Memo.clear_all ();
      let plain_v = Counting.Value.to_string (E.count ~vars formula) in
      Counting.Telemetry.set_file (Some tmp);
      Obs.Log.set_level (Some Obs.Log.Info);
      Omega.Memo.clear_all ();
      let enabled_v = Counting.Value.to_string (E.count ~vars formula) in
      Counting.Telemetry.set_file None;
      Obs.Log.set_level None;
      if not (String.equal plain_v enabled_v) then
        failwith
          (Printf.sprintf "telemetry_overhead_%s: enabled output differs" label);
      let stats () = ignore (E.with_instr ~label run) in
      let enabled () =
        Counting.Telemetry.set_file (Some tmp);
        Obs.Log.set_level (Some Obs.Log.Info);
        let (), r = E.with_instr ~label run in
        Counting.Telemetry.record
          (Counting.Telemetry.build ~label ~opts:E.default ~vars
             ~summand:Qpoly.one ~outcome:Counting.Telemetry.Complete ~report:r
             formula);
        Counting.Telemetry.set_file None;
        Obs.Log.set_level None
      in
      match time_interleaved ~reps:9 [ run; stats; enabled ] with
      | [ disabled_s; stats_s; enabled_s ] ->
          let pct x = (x /. disabled_s -. 1.) *. 100. in
          emit
            (line ("telemetry_overhead_" ^ label)
               [
                 ("disabled_s", J.fixed 6 disabled_s);
                 ("stats_s", J.fixed 6 stats_s);
                 ("enabled_s", J.fixed 6 enabled_s);
                 ("overhead_stats_pct", J.fixed 2 (pct stats_s));
                 ("overhead_enabled_pct", J.fixed 2 (pct enabled_s));
                 ("identical", J.Bool true);
               ])
      | _ -> assert false)
    telemetry_experiments

(* ------------------------------------------------------------------ *)
(* omegad load generation (the BENCH_10.json lines)                     *)

(* Mixed request corpus: the light end of the experiment table plus a
   splinter-heavy tail, as one JSONL request line each. *)
let serve_corpus =
  [
    {|{"query":"count { i, j : 1 <= i <= j <= n }","at":{"n":100}}|};
    {|{"query":"sum { i : 1 <= i <= n } i^2","at":{"n":100}}|};
    {|{"query":"count { i, j : 1 <= i and j <= n and 2*i <= 3*j }","at":{"n":100}}|};
    {|{"query":"count { i, j, k : 1 <= i <= j <= k <= n }","at":{"n":60}}|};
    {|{"query":"count { i : 1 <= i <= n and 3*i <= 2*n }","at":{"n":100}}|};
    {|{"query":"count { i, j : 1 <= i and j <= n and 2*i <= 3*j }","at":{"n":100},"strategy":"symbolic"}|};
    {|{"query":"count { i, j : 1 <= i and j <= n and 3*i <= 5*j }","at":{"n":80}}|};
    (* splinter-heavy tail: large-coefficient rational bounds *)
    {|{"query":"count { i, j : 1 <= i and j <= n and 97*i <= 101*j }","at":{"n":25}}|};
  ]

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float ((p /. 100. *. float_of_int (n - 1)) +. 0.5)))

let with_bench_server cfg f =
  let d = Domain.spawn (fun () -> Serve.Server.run ~config:cfg ()) in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Serve.Client.connect ~retries:50 cfg.Serve.Server.socket_path in
         ignore (Serve.Client.request c {|{"op":"shutdown"}|});
         Serve.Client.close c
       with _ -> ());
      Domain.join d)
    (fun () -> f cfg.Serve.Server.socket_path)

(* [conns] client domains, each sending [per_conn] requests round-robin
   over [reqs] with one in flight; returns wall seconds, the sorted
   per-request latency array, and how many responses were not
   complete/partial. *)
let drive_load ~path ~conns ~per_conn reqs =
  let reqs = Array.of_list reqs in
  let t0 = Unix.gettimeofday () in
  let domains =
    List.init conns (fun k ->
        Domain.spawn (fun () ->
            let c = Serve.Client.connect ~retries:200 path in
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                let lat = Array.make per_conn 0.0 in
                let bad = ref 0 in
                for i = 0 to per_conn - 1 do
                  let req =
                    Serve.Proto.with_id
                      (J.int ((k * 1_000_000) + i))
                      reqs.((i + k) mod Array.length reqs)
                  in
                  let r0 = Unix.gettimeofday () in
                  let resp = Serve.Client.request c req in
                  lat.(i) <- Unix.gettimeofday () -. r0;
                  let ok =
                    match Obs.Ojson.parse resp with
                    | Ok o -> (
                        match Obs.Ojson.member "status" o with
                        | Some (Obs.Ojson.Str ("complete" | "partial")) -> true
                        | _ -> false)
                    | Error _ -> false
                  in
                  if not ok then incr bad
                done;
                (lat, !bad))))
  in
  let results = List.map Domain.join domains in
  let wall_s = Unix.gettimeofday () -. t0 in
  let lats = Array.concat (List.map fst results) in
  Array.sort compare lats;
  (wall_s, lats, List.fold_left (fun a (_, b) -> a + b) 0 results)

let serve_metric path name =
  let c = Serve.Client.connect ~retries:50 path in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      match Obs.Ojson.parse (Serve.Client.request c {|{"op":"metrics"}|}) with
      | Ok o -> (
          match Obs.Ojson.member "metrics" o with
          | Some (Obs.Ojson.Str text) ->
              String.split_on_char '\n' text
              |> List.find_map (fun l ->
                     match String.index_opt l ' ' with
                     | Some i when String.sub l 0 i = name ->
                         int_of_string_opt
                           (String.sub l (i + 1) (String.length l - i - 1))
                     | _ -> None)
          | _ -> None)
      | Error _ -> None)

let bench_sock tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "omegad-bench-%s-%d.sock" tag (Unix.getpid ()))

let serve_report emit =
  Printf.printf "omegad load generation (mixed corpus + splinter tail):\n";
  let throughput_line label cfg =
    with_bench_server cfg (fun path ->
        let conns = 8 and per_conn = 25 in
        let wall_s, lats, bad = drive_load ~path ~conns ~per_conn serve_corpus in
        let n = conns * per_conn in
        if bad > 0 then
          failwith (Printf.sprintf "%s: %d malformed responses" label bad);
        let p q = percentile lats q *. 1000. in
        Printf.printf
          "  %-22s %4d reqs %2d conns  %8.1f req/s  p50 %6.2fms  p90 %6.2fms  p99 %6.2fms\n"
          label n conns
          (float_of_int n /. wall_s)
          (p 50.) (p 90.) (p 99.);
        emit
          (line label
             [
               ("requests", J.int n);
               ("conns", J.int conns);
               ("handlers", J.int cfg.Serve.Server.handlers);
               ("wall_s", J.fixed 6 wall_s);
               ("rps", J.fixed 1 (float_of_int n /. wall_s));
               ("p50_ms", J.fixed 3 (p 50.));
               ("p90_ms", J.fixed 3 (p 90.));
               ("p99_ms", J.fixed 3 (p 99.));
             ]))
  in
  (* Cold: TTL -1 expires every cache entry immediately, so each request
     exercises the full per-request pipeline (context install, governed
     engine run, render). *)
  throughput_line "serve_throughput_cold"
    {
      Serve.Server.default_config with
      socket_path = bench_sock "cold";
      handlers = 4;
      cache_capacity = 1;
      cache_ttl_s = Some (-1.);
      idle_sweep_s = None;
    };
  (* Cached: the same corpus with the value cache on — steady
     state for a service replaying hot queries. *)
  throughput_line "serve_throughput_cached"
    {
      Serve.Server.default_config with
      socket_path = bench_sock "cached";
      handlers = 4;
      cache_ttl_s = None;
      idle_sweep_s = None;
    };
  (* Soak: 10k requests cycling more distinct queries than the cache
     holds — eviction must bound both the entry count and the heap. *)
  let soak_cfg =
    {
      Serve.Server.default_config with
      socket_path = bench_sock "soak";
      handlers = 4;
      cache_capacity = 16;
      cache_ttl_s = None;
      idle_sweep_s = None;
    }
  in
  with_bench_server soak_cfg (fun path ->
      let distinct = 40 in
      let reqs =
        List.init distinct (fun k ->
            let q = Printf.sprintf "count { i : 1 <= i <= %d*n }" (k + 1) in
            J.render
              (J.Obj [ ("query", J.Str q); ("at", J.Obj [ ("n", J.int 7) ]) ]))
      in
      let metric name = Option.value ~default:0 (serve_metric path name) in
      (* The metrics registry is process-global: delta from here, so the
         two throughput phases above don't leak into the soak figures. *)
      let hits0 = metric "omega_serve_cache_hits_total" in
      let misses0 = metric "omega_serve_cache_misses_total" in
      Gc.compact ();
      let heap0 = (Gc.quick_stat ()).Gc.heap_words in
      let conns = 4 and per_conn = 2500 in
      let wall_s, _, bad = drive_load ~path ~conns ~per_conn reqs in
      Gc.compact ();
      let heap1 = (Gc.quick_stat ()).Gc.heap_words in
      if bad > 0 then failwith (Printf.sprintf "soak: %d malformed responses" bad);
      let n = conns * per_conn in
      let hits = metric "omega_serve_cache_hits_total" - hits0 in
      let misses = metric "omega_serve_cache_misses_total" - misses0 in
      let entries = metric "omega_serve_cache_entries" in
      let bounded = entries <= soak_cfg.Serve.Server.cache_capacity in
      if not bounded then
        failwith
          (Printf.sprintf "soak: cache entries %d exceed capacity %d" entries
             soak_cfg.Serve.Server.cache_capacity);
      let heap_growth = max 0 (heap1 - heap0) in
      Printf.printf
        "  %-22s %4d reqs over %d queries  cap %d  hits %d  misses %d  entries %d  heap +%d words  %8.1f req/s\n"
        "serve_cache_soak" n distinct soak_cfg.Serve.Server.cache_capacity hits
        misses entries heap_growth
        (float_of_int n /. wall_s);
      emit
        (line "serve_cache_soak"
           [
             ("requests", J.int n);
             ("distinct_queries", J.int distinct);
             ("capacity", J.int soak_cfg.Serve.Server.cache_capacity);
             ("hits", J.int hits);
             ("misses", J.int misses);
             ( "hit_rate",
               J.fixed 4
                 (float_of_int hits /. float_of_int (max 1 (hits + misses))) );
             ("entries_end", J.int entries);
             ("entries_bounded", J.Bool bounded);
             ("heap_growth_words", J.int heap_growth);
             ("wall_s", J.fixed 6 wall_s);
             ("rps", J.fixed 1 (float_of_int n /. wall_s));
           ]))

(* ------------------------------------------------------------------ *)
(* Bechamel timing                                                      *)

open Bechamel
open Toolkit

let stage = Staged.stage

let tests =
  Test.make_grouped ~name:"omegacount"
    [
      Test.make ~name:"E0_intro_table"
        (stage (fun () -> List.map run_query intro_queries));
      Test.make ~name:"E0b_guarded_pitfall" (stage (fun () -> run_query pitfall));
      Test.make ~name:"E1_example1"
        (stage (fun () -> E.count ~vars:[ "i"; "j"; "kk" ] example1_formula));
      Test.make ~name:"E1_example1_tawbi"
        (stage (fun () ->
             E.count ~opts:Counting.Baselines.tawbi_opts
               ~vars:[ "i"; "j"; "kk" ] example1_formula));
      Test.make ~name:"E2_example2"
        (stage (fun () -> E.count ~vars:[ "i"; "j"; "kk" ] example2_formula));
      Test.make ~name:"E3_example3"
        (stage (fun () -> E.count ~vars:[ "i"; "j" ] example3_formula));
      Test.make ~name:"E4_example4"
        (stage (fun () -> E.count ~vars:[ "x" ] example4_formula));
      Test.make ~name:"E5a_sor_memory"
        (stage (fun () -> L.touched_count sor ~array:"a"));
      Test.make ~name:"E5b_sor_cache_lines"
        (stage (fun () -> L.cache_line_count sor ~array:"a" ~words:16 ~base:1));
      Test.make ~name:"E6_example6"
        (stage (fun () ->
             Counting.Merge.merge_residues
               (E.count ~vars:[ "i"; "j" ] example6_formula)));
      Test.make ~name:"S26_simplify"
        (stage (fun () -> Omega.Dnf.of_formula section26_formula));
      Test.make ~name:"S33_hpf_ownership"
        (stage (fun () ->
             Loopapps.Hpf.ownership_count
               { Loopapps.Hpf.procs = 8; block = 4 }
               ~proc:0));
      Test.make ~name:"F1_disjoint_splinter"
        (stage (fun () ->
             let beta, cl = fig1_clause () in
             Omega.Solve.project Omega.Solve.Exact_disjoint [ beta ] cl));
      Test.make ~name:"F1_overlapping_splinter"
        (stage (fun () ->
             let beta, cl = fig1_clause () in
             Omega.Solve.project Omega.Solve.Exact_overlapping [ beta ] cl));
      Test.make ~name:"A3_fst91_k4"
        (stage (fun () ->
             Counting.Baselines.fst91_sum ~vars:[ "i" ] (overlap_boxes 4)
               Qpoly.one));
      Test.make ~name:"A3_disjoint_k4"
        (stage (fun () ->
             E.sum_clauses ~vars:[ "i" ]
               (Omega.Disjoint.to_disjoint (overlap_boxes 4))
               Qpoly.one));
      Test.make ~name:"A5_approx_upper"
        (stage (fun () ->
             let f =
               F.and_
                 [
                   F.geq (v "i") (k 1);
                   F.leq (A.scale (Zint.of_int 3) (v "i")) (v "n");
                 ]
             in
             E.sum ~opts:{ E.default with strategy = E.Upper } ~vars:[ "i" ] f
               (Qpoly.var "i")));
      Test.make ~name:"micro_zint_small" (stage micro_zint);
      Test.make ~name:"micro_qnum_small" (stage micro_qnum);
      Test.make ~name:"micro_affine_small" (stage micro_affine);
    ]

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let check = List.mem "--check" argv in
  let find_arg flag =
    let rec find = function
      | f :: file :: _ when f = flag -> Some file
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let json_file = find_arg "--json" in
  let trace_file = find_arg "--trace" in
  (match Option.bind (find_arg "--jobs") int_of_string_opt with
  | Some n -> Counting.Pool.set_jobs n
  | None -> ());
  (match find_arg "--telemetry" with
  | Some f -> Counting.Telemetry.set_file (Some f)
  | None -> ());
  let certify_file = find_arg "--certify" in
  let json_oc = Option.map open_out json_file in
  let emit j =
    let text = J.render j in
    Printf.printf "%s\n" text;
    match json_oc with
    | Some oc ->
        output_string oc text;
        output_char oc '\n'
    | None -> ()
  in
  (* Every emitted stream opens with a uniform _meta line so downstream
     JSON (including committed BENCH_*.json assembled from these runs)
     always records the machine and jobs context — what `--check`'s
     bench-meta gate enforces. *)
  emit
    (line "_meta"
       [
         ("generator", J.Str "bench/main.exe");
         ("cores_available", J.int (Domain.recommended_domain_count ()));
         ("jobs", J.int (Counting.Pool.jobs ()));
       ]);
  if List.mem "planner_report" argv then begin
    (* `bench planner_report`: just the reference-vs-pipeline
       comparison lines (the BENCH_7.json generator). *)
    planner_report emit;
    Option.iter close_out json_oc;
    exit 0
  end;
  if List.mem "telemetry_report" argv then begin
    (* `bench telemetry_report`: just the telemetry-overhead lines (the
       BENCH_8.json generator). *)
    telemetry_report emit;
    Option.iter close_out json_oc;
    exit 0
  end;
  if List.mem "serve_report" argv then begin
    (* `bench serve_report`: omegad under load — throughput and tail
       latency over a mixed corpus, plus the 10k-request answer-cache
       soak (the BENCH_10.json generator). *)
    serve_report emit;
    Option.iter close_out json_oc;
    exit 0
  end;
  report ();
  (* Trace only the instrumented runs: tracing the Bechamel timing loops
     below would perturb the very numbers they measure. *)
  Option.iter (fun _ -> Obs.Trace.set_enabled true) trace_file;
  instr_report emit;
  Option.iter certify_report certify_file;
  par_report emit;
  backend_report emit;
  planner_report emit;
  governor_report emit;
  telemetry_report emit;
  Option.iter
    (fun f ->
      Obs.Trace.set_enabled false;
      let oc = open_out f in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Obs.Trace.write_chrome oc))
    trace_file;
  Option.iter close_out json_oc;
  let checks_ok = if check then run_checks () else true in
  if not checks_ok then exit 1;
  if quick then exit 0;
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  Printf.printf "Timings (monotonic clock, OLS time per run):\n";
  let rows =
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some (t :: _) ->
          Printf.printf "  %-42s %12.1f us/run\n" name (t /. 1000.0)
      | _ -> Printf.printf "  %-42s (no estimate)\n" name)
    rows
