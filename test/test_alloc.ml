(* Allocation-regression guard for the small-integer fast path.

   The two-constructor [Zint] representation cut the cold Example 6
   counting query roughly in half, to well under 100k minor words
   (BENCH_2.json, E6_example6). This test pins that budget: if a change
   reintroduces per-operation boxing in the arithmetic stack, the cold
   count climbs back toward the pre-fast-path figure (~165k words with
   the residue merge) and trips the ceiling. Allocation counts are
   deterministic for a fixed code path — [Gc.minor_words] reads the
   allocation pointer — so the only slack needed is for code evolution,
   not for run-to-run noise. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module E = Counting.Engine

let v name = A.var (V.named name)
let k n = A.of_int n
let z = Zint.of_int

(* Example 6: (Σ i,j : 1 <= i ∧ j <= n ∧ 2i <= 3j : 1). *)
let example6_formula =
  F.and_
    [
      F.geq (v "i") (k 1);
      F.leq (v "j") (v "n");
      F.leq (A.scale (z 2) (v "i")) (A.scale (z 3) (v "j"));
    ]

(* Guards are ratios against measured baselines rather than
   free-standing word ceilings: the failure message then reports how far
   the measurement drifted, and retuning after an intentional change
   means re-measuring one number instead of re-deriving a ceiling with
   guessed headroom. Baselines are the cold-cache figures for this
   revision; 1.75x still comfortably rejects the ~2.2x pre-fast-path
   behaviour (~160k words on Example 6) while leaving room for benign
   engine evolution. *)
let e6_baseline = 72_000.
let gf_baseline = 2_220_000.
let max_ratio = 1.75

let guard_ratio ?(unit = "minor words") ~label ~baseline words =
  let ratio = words /. baseline in
  if ratio > max_ratio then
    Alcotest.failf "%s: %.0f %s = %.2fx the %.0f baseline (max %.2fx)" label
      words unit ratio baseline max_ratio

let test_example6_minor_words () =
  (* Warm-up absorbs one-time costs (lazy initializers, weak-table
     growth); clearing the memo tables afterwards makes the measured run
     a cold-cache query like the benchmark's. *)
  ignore (E.count ~vars:[ "i"; "j" ] example6_formula);
  Omega.Memo.clear_all ();
  let before = Gc.minor_words () in
  ignore (E.count ~vars:[ "i"; "j" ] example6_formula);
  let words = Gc.minor_words () -. before in
  guard_ratio ~label:"Example 6 count (small-integer fast path)"
    ~baseline:e6_baseline words

(* Example 4 under the generating-function backend: the clause's 6i+9j
   stride pair dispatches to gfcount, so this cold run covers the whole
   Barvinok path — lattice preprocessing, vertex enumeration, LLL-based
   unimodular splitting, Todd-series specialization. The baseline is
   dominated by rational Gauss–Jordan and LLL; 1.75x rejects an
   accidental regression (e.g. a non-memoized inverse recomputed per
   vertex) with room for benign evolution. *)

let example4_formula =
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

let test_example4_gf_minor_words () =
  let opts = { E.default with backend = E.Gf } in
  ignore (E.count ~opts ~vars:[ "x" ] example4_formula);
  Omega.Memo.clear_all ();
  let before = Gc.minor_words () in
  ignore (E.count ~opts ~vars:[ "x" ] example4_formula);
  let words = Gc.minor_words () -. before in
  guard_ratio ~label:"Example 4 gf-backend count" ~baseline:gf_baseline words

(* Disabled telemetry and logging must add nothing to the measured
   path: the compiled-in hooks (log-level check, flight-note sites,
   telemetry sink check) are off by default and the E6 count must
   allocate the same words as a build without them would — i.e. stay
   under the same ceiling, even right after the observability stack has
   been exercised and disarmed (proving disarming actually disarms, not
   just that the features were never touched). Allocation counts are
   deterministic, so the comparison against the plain run needs only a
   whisker of slack for logger/teardown residue on this domain. *)
let test_disabled_telemetry_zero_alloc () =
  ignore (E.count ~vars:[ "i"; "j" ] example6_formula);
  Omega.Memo.clear_all ();
  let before = Gc.minor_words () in
  ignore (E.count ~vars:[ "i"; "j" ] example6_formula);
  let plain_words = Gc.minor_words () -. before in
  (* exercise the stack, then turn everything off again *)
  Obs.Log.set_level (Some Obs.Log.Debug);
  Obs.Log.debug (fun () -> "alloc-guard warmup");
  Obs.Log.flush ();
  Obs.Log.set_level None;
  Counting.Telemetry.set_file None;
  Omega.Memo.clear_all ();
  let before = Gc.minor_words () in
  ignore (E.count ~vars:[ "i"; "j" ] example6_formula);
  let words = Gc.minor_words () -. before in
  guard_ratio ~label:"Example 6 with disarmed telemetry" ~baseline:e6_baseline
    words;
  if words > plain_words +. 2_000. then
    Alcotest.failf
      "disarmed telemetry/logging added %.0f minor words over the plain run \
       (%.0f vs %.0f): a disabled hook is allocating"
      (words -. plain_words) words plain_words

(* Same discipline for the certificate recorder: its hook sites live on
   the engine's clause-drop and refutation paths, guarded by a single
   [Cert.armed ()] atomic read. After a recording run has armed,
   drained, and disarmed the recorder, the plain count must allocate
   exactly what it did before — a disarmed hook that builds snapshots or
   events speculatively would show up here. *)
let test_disabled_cert_zero_alloc () =
  ignore (E.count ~vars:[ "i"; "j" ] example6_formula);
  Omega.Memo.clear_all ();
  let before = Gc.minor_words () in
  ignore (E.count ~vars:[ "i"; "j" ] example6_formula);
  let plain_words = Gc.minor_words () -. before in
  (* arm, record a full certified run, disarm *)
  let _, events, _ =
    Counting.Certify.with_recording (fun () ->
        E.count ~vars:[ "i"; "j" ] example6_formula)
  in
  ignore events;
  Omega.Memo.clear_all ();
  let before = Gc.minor_words () in
  ignore (E.count ~vars:[ "i"; "j" ] example6_formula);
  let words = Gc.minor_words () -. before in
  guard_ratio ~label:"Example 6 after certificate recording"
    ~baseline:e6_baseline words;
  if words > plain_words +. 2_000. then
    Alcotest.failf
      "disarmed certificate recorder added %.0f minor words over the plain \
       run (%.0f vs %.0f): a disabled hook is allocating"
      (words -. plain_words) words plain_words

(* A value-cache hit in omegad is one [Value.eval] of the cached value.
   The splinter query's value is 97 always-active pieces of
   (n mod 97) quasi-polynomials; evaluated in integers over one common
   denominator it costs ~9.6k words, where rational arithmetic per atom
   and monomial cost ~42k. *)
let splinter_eval_baseline = 9_700.

let test_splinter_eval_minor_words () =
  let p =
    Preslang.parse_query
      "count { i, j : 1 <= i and j <= n and 97*i <= 101*j }"
  in
  let value =
    Counting.Merge.merge_residues
      (E.sum ~vars:p.Preslang.vars p.Preslang.formula p.Preslang.summand)
  in
  let n = z 12345 in
  let env _ = n in
  ignore (Counting.Value.eval env value);
  let before = Gc.minor_words () in
  ignore (Counting.Value.eval env value);
  let words = Gc.minor_words () -. before in
  guard_ratio ~label:"splinter value evaluation"
    ~baseline:splinter_eval_baseline words

(* A certified splinter request always runs [Governor.sum] on the
   splinter query: 97 residue pieces over one bound pair per variable,
   so the convex phase runs no redundancy pass, only one feasibility
   test per clause. With a pass per clause and level the cold sum took
   ~1.53M words, 1.54x this baseline and inside the ratio, so the sum
   phase's feasibility queries are guarded too: 388 without the passes,
   973 with them. *)
let splinter_sum_baseline = 990_000.
let splinter_feas_baseline = 388.

let test_splinter_sum_minor_words () =
  let p =
    Preslang.parse_query
      "count { i, j : 1 <= i and j <= n and 97*i <= 101*j }"
  in
  let sum () =
    Counting.Governor.sum ~vars:p.Preslang.vars p.Preslang.formula
      p.Preslang.summand
  in
  ignore (sum ());
  Omega.Memo.clear_all ();
  let before = Gc.minor_words () in
  ignore (sum ());
  let words = Gc.minor_words () -. before in
  guard_ratio ~label:"splinter Governor.sum" ~baseline:splinter_sum_baseline
    words;
  Omega.Memo.clear_all ();
  let cls = E.to_clauses p.Preslang.formula in
  let before = Omega.Memo.snapshot () in
  ignore (E.clause_sums ~vars:p.Preslang.vars cls p.Preslang.summand);
  let d = Omega.Memo.diff (Omega.Memo.snapshot ()) before in
  guard_ratio ~unit:"queries" ~label:"splinter sum-phase feasibility"
    ~baseline:splinter_feas_baseline
    (float_of_int d.Omega.Memo.feas_queries)

let suite =
  ( "alloc",
    [
      Alcotest.test_case "example6 minor-words ratio guard" `Quick
        test_example6_minor_words;
      Alcotest.test_case "example6 disabled-telemetry zero-alloc" `Quick
        test_disabled_telemetry_zero_alloc;
      Alcotest.test_case "example6 disabled-cert zero-alloc" `Quick
        test_disabled_cert_zero_alloc;
      Alcotest.test_case "example4 gf-backend minor-words ratio guard" `Quick
        test_example4_gf_minor_words;
      Alcotest.test_case "splinter value eval minor-words ratio guard" `Quick
        test_splinter_eval_minor_words;
      Alcotest.test_case "splinter Governor.sum minor-words ratio guard" `Quick
        test_splinter_sum_minor_words;
    ] )
