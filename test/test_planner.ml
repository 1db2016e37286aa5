(* Byte-identity, soundness and chaos battery for the counting pipeline's
   planner and pre-filter (Counting.Planner, Omega.Prefilter).

   The pipeline may reorder eliminations, route clauses to the
   generating-function backend, clamp splinter-pin loops and prune
   provably infeasible branches — but it must never change a single
   byte of the rendered answer, at any --jobs level, under any
   strategy. The reference is the same engine with the pre-filter
   disarmed and every clause forced through Pugh. This file pins that
   guarantee on every EXPERIMENTS.md example, on a 500-trial slice of
   both differential families, and under governor fault injection; it
   also pins the pre-filter's one-sided soundness (a Refuted verdict is
   a proof the exact solver confirms, a Feasible verdict is a checked
   witness) and the determinism of the plan itself. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module E = Counting.Engine
module G = Counting.Governor
module Planner = Counting.Planner
module Chaos = Counting.Chaos
module Clause = Omega.Clause
module Prefilter = Omega.Prefilter
module Solve = Omega.Solve

let with_jobs = Test_parallel.with_jobs
let render = Counting.Value.to_string
let k n = A.of_int n
let av s = A.var (V.named s)

let strategies =
  [ (E.Exact, "exact"); (E.Symbolic, "symbolic"); (E.Upper, "upper");
    (E.Lower, "lower") ]

(* The pipeline must agree with the reference at jobs = 1 and on a real
   pool. *)
let plan_jobs = [ 1; 4 ]

(* The reference run: pre-filter disarmed, no gf routing. The planner's
   elimination order still applies, but only in the collapse-safe zone,
   where the answer is one constant that test_differential checks
   against brute force. *)
let reference f = Prefilter.with_armed false f
let pugh opts = { opts with E.backend = E.Pugh }

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS examples: the reference at jobs = 1; the default pipeline
   must reproduce it byte-for-byte at every jobs level and strategy.    *)

let test_examples_byte_identity () =
  List.iter
    (fun (name, unit) ->
      List.iter
        (fun (strategy, sname) ->
          let opts = { E.default with E.strategy } in
          let run jobs opts =
            with_jobs jobs (fun () ->
                Test_differential.reset_world ();
                unit opts)
          in
          let expected = reference (fun () -> run 1 (pugh opts)) in
          List.iter
            (fun jobs ->
              Alcotest.(check string)
                (Printf.sprintf "%s [%s] pipeline jobs=%d = reference jobs=1"
                   name sname jobs)
                expected (run jobs opts))
            plan_jobs)
        strategies)
    Test_gfcount.example_units

(* The pre-filter must also commute with the backend knob: armed equals
   disarmed under every backend. *)
let test_examples_backend_matrix () =
  List.iter
    (fun (name, unit) ->
      List.iter
        (fun (backend, bname) ->
          let run () =
            with_jobs 1 (fun () ->
                Test_differential.reset_world ();
                unit { E.default with E.backend })
          in
          Alcotest.(check string)
            (Printf.sprintf "%s [%s] armed = disarmed" name bname)
            (reference run) (run ()))
        [ (E.Pugh, "pugh"); (E.Gf, "gf"); (E.Auto, "auto") ])
    Test_gfcount.example_units

(* ------------------------------------------------------------------ *)
(* Differential battery: 500 qcheck trials, each one seed of the base
   (0–299) or dense (300–399) family under one strategy at one jobs
   level. Symbolic on the dense family degenerates to Exact and re-pays
   the full splinter cost, so dense trials draw from the other three
   strategies (same carve-out as test_differential).                    *)

let battery_property n =
  let seed = n mod 400 in
  let dense = seed >= 300 in
  let case =
    if dense then Test_differential.gen_dense_case seed
    else Test_differential.gen_case seed
  in
  let strategy, sname =
    if dense then
      List.nth
        [ (E.Exact, "exact"); (E.Upper, "upper"); (E.Lower, "lower") ]
        (n / 400 mod 3)
    else List.nth strategies (n / 400 mod 4)
  in
  let jobs = if n / 1600 mod 2 = 0 then 1 else 4 in
  let opts = { E.default with E.strategy } in
  let run jobs opts =
    with_jobs jobs (fun () ->
        Test_differential.reset_world ();
        render
          (E.count ~opts ~vars:case.Test_differential.vars
             case.Test_differential.formula))
  in
  let expected = reference (fun () -> run 1 (pugh opts)) in
  let pipeline = run jobs opts in
  if String.equal expected pipeline then true
  else
    QCheck.Test.fail_reportf
      "seed %d [%s] jobs=%d: reference@1 and pipeline diverge\n\
       reference: %s\n\
       pipeline:  %s"
      seed sname jobs expected pipeline

let battery_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"500-seed static/adaptive byte-identity battery"
       ~count:500
       QCheck.(int_bound 10_000)
       battery_property)

(* ------------------------------------------------------------------ *)
(* Pre-filter soundness: on raw random clauses (not yet feasibility-
   filtered, so genuinely infeasible ones appear), Refuted implies the
   exact solver agrees there is no solution — the filter never prunes a
   satisfiable clause — and Feasible implies it agrees there is one.    *)

let gen_clause st =
  let nvars = 1 + Random.State.int st 3 in
  let vars = List.filteri (fun i _ -> i < nvars) [ "x"; "y"; "z" ] in
  let affine () =
    let terms =
      List.filter_map
        (fun v ->
          let c = Random.State.int st 7 - 3 in
          if c = 0 then None else Some (A.term (Zint.of_int c) (V.named v)))
        vars
    in
    List.fold_left A.add (k (Random.State.int st 21 - 10)) terms
  in
  (* Boxes with probability 2/3: bounded clauses exercise the box probe
     (both verdicts), unbounded ones the interval refutation and the
     Unknown fall-through. *)
  let boxes =
    if Random.State.int st 3 = 0 then []
    else
      List.concat_map
        (fun v -> [ A.add (av v) (k 4); A.sub (k 4) (av v) ])
        vars
  in
  let geqs = boxes @ List.init (1 + Random.State.int st 4) (fun _ -> affine ()) in
  let eqs = List.init (Random.State.int st 2) (fun _ -> affine ()) in
  let strides =
    List.init (Random.State.int st 2) (fun _ ->
        (Zint.of_int (2 + Random.State.int st 4), affine ()))
  in
  Clause.make ~eqs ~geqs ~strides ()

let prefilter_sound n =
  let st = Random.State.make [| 0xf117e5; n |] in
  let c = gen_clause st in
  match Prefilter.probe c with
  | Prefilter.Unknown -> true
  | Prefilter.Refuted ->
      if Solve.is_feasible c then
        QCheck.Test.fail_reportf
          "probe refuted a clause the exact solver finds satisfiable \
           (trial %d)"
          n
      else true
  | Prefilter.Feasible ->
      if Solve.is_feasible c then true
      else
        QCheck.Test.fail_reportf
          "probe claimed a witness for a clause the exact solver refutes \
           (trial %d)"
          n

let prefilter_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"pre-filter soundness vs exact solver" ~count:1000
       QCheck.(int_bound 1_000_000)
       prefilter_sound)

(* The battery above must actually exercise both decisive verdicts —
   otherwise the soundness property tests nothing. *)
let test_prefilter_decisive () =
  let refuted = ref 0 and feasible = ref 0 in
  for n = 0 to 999 do
    let st = Random.State.make [| 0xf117e5; n |] in
    match Prefilter.probe (gen_clause st) with
    | Prefilter.Refuted -> incr refuted
    | Prefilter.Feasible -> incr feasible
    | Prefilter.Unknown -> ()
  done;
  if !refuted = 0 then Alcotest.fail "generator never produced a refutation";
  if !feasible = 0 then Alcotest.fail "generator never produced a witness"

(* ------------------------------------------------------------------ *)
(* Plan determinism: the plan is a pure function of the clause —
   identical across repeated calls, jobs levels, and live pool domains. *)

let plan_fingerprint cls ~vars =
  cls
  |> List.map (fun c ->
         let d = Planner.plan_clause ~exact:true ~const_poly:true ~vars c in
         Printf.sprintf "gf=%b ord=%b fan=%d rows=%d w=%d [%s]"
           d.Planner.use_gf d.Planner.adaptive_order d.Planner.predicted_fanout
           d.Planner.rows d.Planner.weight
           (String.concat " " (List.map V.to_string (Planner.order c vars))))
  |> String.concat "\n"

let test_plan_determinism () =
  let formulas =
    [
      ([ "i"; "j"; "kk" ], Test_parallel.example1_formula);
      ([ "x" ], Test_parallel.example4_formula);
      ([ "i"; "j" ], Test_parallel.example6_formula);
      ( [ "x"; "y"; "z" ],
        (Test_differential.gen_dense_case 347).Test_differential.formula );
    ]
  in
  List.iter
    (fun (names, f) ->
      let vars = List.map V.named names in
      let run jobs =
        with_jobs jobs (fun () ->
            Test_differential.reset_world ();
            let cls = E.to_clauses f in
            ( plan_fingerprint cls ~vars,
              Planner.explain ~exact:true ~const_poly:true ~vars cls ))
      in
      let p1, e1 = run 1 in
      List.iter
        (fun jobs ->
          let p, e = run jobs in
          Alcotest.(check string)
            (Printf.sprintf "plan fingerprint jobs=%d" jobs)
            p1 p;
          Alcotest.(check string)
            (Printf.sprintf "explain jobs=%d" jobs)
            e1 e)
        [ 1; 4 ])
    formulas

(* ------------------------------------------------------------------ *)
(* The pipeline must actually engage on its headline wins, not
   vacuously agree with the reference: the S33 pin clamp prunes pins,
   and the dense-simplex planner routes to the gf backend.              *)

let metric_value name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Count n) -> n
  | _ -> 0

let test_planner_engaged () =
  let pins_before = metric_value "planner.pruned_pins" in
  Test_differential.reset_world ();
  ignore
    (Loopapps.Hpf.ownership_count { Loopapps.Hpf.procs = 8; block = 4 }
       ~proc:0);
  if metric_value "planner.pruned_pins" <= pins_before then
    Alcotest.fail "S33 never clamped a splinter pin";
  let gf_before = metric_value "engine.gf_clauses" in
  let case = Test_differential.gen_dense_case 347 in
  Test_differential.reset_world ();
  ignore
    (E.count ~vars:case.Test_differential.vars case.Test_differential.formula);
  if metric_value "engine.gf_clauses" <= gf_before then
    Alcotest.fail
      "planner never routed a dense concrete clause to the gf backend"

(* ------------------------------------------------------------------ *)
(* Governor chaos through the pipeline: probes charge fuel and
   fault injection can kill tasks mid-plan; outcomes must still be
   Complete-and-correct or a bracketing Partial.                        *)

let chaos_property ~jobs n =
  with_jobs jobs (fun () ->
      let seed = 300 + (n mod 100) in
      let case = Test_differential.gen_dense_case seed in
      Chaos.set None;
      Test_differential.reset_world ();
      let truth = Test_differential.brute case in
      Test_differential.reset_world ();
      let label = Printf.sprintf "planner-chaos jobs=%d case=%d" jobs seed in
      Chaos.set ~rate:5 (Some (0x91a7 + (n * 3)));
      let outcome =
        Fun.protect
          ~finally:(fun () -> Chaos.set None)
          (fun () ->
            G.count ~vars:case.Test_differential.vars
              case.Test_differential.formula)
      in
      Test_governor.check_chaos_outcome ~label ~truth ~strategy:E.Exact
        ~env:case.Test_differential.env outcome;
      true)

let chaos_qcheck ~jobs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "adaptive chaos battery, jobs=%d" jobs)
       ~count:40
       QCheck.(int_bound 10_000)
       (chaos_property ~jobs))

(* Deterministic fuel trip: probes are metered, so a tiny budget through
   the pipeline must yield a bracketing Partial, not a crash, a
   hang in the probe loop, or a wrong Complete. *)
let test_fuel_partial_adaptive () =
  Chaos.set None;
  Test_differential.reset_world ();
  let case = Test_differential.gen_dense_case 302 in
  let truth = Test_differential.brute case in
  match
    G.count
      ~budget:{ G.unlimited with G.fuel = Some 3 }
      ~vars:case.Test_differential.vars case.Test_differential.formula
  with
  | G.Complete _ -> Alcotest.fail "3 fuel units completed a dense case"
  | G.Partial p ->
      Alcotest.(check string)
        "tripped on fuel" "fuel"
        (G.reason_name p.G.reason);
      Test_governor.check_chaos_outcome ~label:"adaptive fuel partial" ~truth
        ~strategy:E.Exact ~env:case.Test_differential.env (G.Partial p)

let suite =
  ( "planner",
    [
      Alcotest.test_case
        "EXPERIMENTS examples: adaptive byte-identical across strategies and \
         jobs"
        `Quick test_examples_byte_identity;
      Alcotest.test_case "adaptive commutes with gf/auto backends" `Quick
        test_examples_backend_matrix;
      battery_qcheck;
      prefilter_qcheck;
      Alcotest.test_case "pre-filter reaches both decisive verdicts" `Quick
        test_prefilter_decisive;
      Alcotest.test_case "plan and explain deterministic across jobs" `Quick
        test_plan_determinism;
      Alcotest.test_case "adaptive path engages (pins pruned, gf routed)"
        `Quick test_planner_engaged;
      chaos_qcheck ~jobs:1;
      chaos_qcheck ~jobs:4;
      Alcotest.test_case "tiny fuel through adaptive yields bracketing Partial"
        `Quick test_fuel_partial_adaptive;
    ] )
