(* Byte-identity and chaos battery for the generating-function backend
   (Counting.Gfcount, Engine.backend).

   The engine guarantees that the [Gf] and [Auto] backends are
   drop-in: wherever gfcount applies it produces the same simplified
   piece list as the Pugh splintering engine — byte-identical rendered
   output, not merely equal counts — and wherever it does not apply it
   falls back to Pugh per clause. This file pins that guarantee on every
   EXPERIMENTS.md example across all four strategies, on a slice of the
   dense-polytope
   differential family, and under governor fault injection (a budget
   trip mid-decomposition must still yield a Partial whose bounds
   bracket brute force). *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module E = Counting.Engine
module G = Counting.Governor
module Chaos = Counting.Chaos
module Value = Counting.Value

let render = Counting.Value.to_string

let backends = [ (E.Gf, "gf"); (E.Auto, "auto") ]

let strategies =
  [ (E.Exact, "exact"); (E.Symbolic, "symbolic"); (E.Upper, "upper");
    (E.Lower, "lower") ]

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS examples: units parameterized by engine options, so the
   same computation can be re-rendered under each backend.              *)

let query opts q =
  let p = Preslang.parse_query q in
  render (E.sum ~opts ~vars:p.Preslang.vars p.Preslang.formula p.Preslang.summand)

let example_units =
  [
    ("E0 intro 1", fun opts -> query opts "count { i : 1 <= i <= 10 }");
    ("E0 intro 2", fun opts -> query opts "count { i : 1 <= i <= n }");
    ( "E0 intro 4",
      fun opts -> query opts "count { i, j : 1 <= i < j <= n }" );
    ( "E0b pitfall",
      fun opts -> query opts "count { i, j : 1 <= i <= n and i <= j <= m }" );
    ( "E1 example 1",
      fun opts ->
        render
          (E.count ~opts ~vars:[ "i"; "j"; "kk" ]
             Test_parallel.example1_formula) );
    ( "E2 example 2",
      fun opts ->
        render
          (E.count ~opts ~vars:[ "i"; "j"; "kk" ]
             Test_parallel.example2_formula) );
    ( "E3 example 3",
      fun opts ->
        render
          (E.count ~opts ~vars:[ "i"; "j" ] Test_parallel.example3_formula) );
    ( "E4 example 4",
      fun opts ->
        render (E.count ~opts ~vars:[ "x" ] Test_parallel.example4_formula) );
    ( "E6 example 6",
      fun opts ->
        render
          (E.count ~opts ~vars:[ "i"; "j" ] Test_parallel.example6_formula) );
    ( "S33 HPF ownership",
      fun opts ->
        render
          (Loopapps.Hpf.ownership_count ~opts
             { Loopapps.Hpf.procs = 4; block = 2 }
             ~proc:0) );
  ]

(* For every example × strategy: the Pugh rendering is the reference;
   Gf and Auto must reproduce it byte-for-byte. *)
let test_examples_byte_identity () =
  List.iter
    (fun (name, unit) ->
      List.iter
        (fun (strategy, sname) ->
          let run backend =
            Test_differential.reset_world ();
            unit { E.default with strategy; backend }
          in
          let reference = run E.Pugh in
          List.iter
            (fun (backend, bname) ->
              Alcotest.(check string)
                (Printf.sprintf "%s [%s] %s = pugh" name sname bname)
                reference (run backend))
            backends)
        strategies)
    example_units

(* ------------------------------------------------------------------ *)
(* Dense-polytope differential slice: the clauses where gfcount really
   runs its cone decomposition (rather than falling back). Byte
   identity of the full rendered value, Gf and Auto vs Pugh.            *)

let test_dense_byte_identity () =
  for seed = 300 to 319 do
    let case = Test_differential.gen_dense_case seed in
    let run backend =
      Test_differential.reset_world ();
      render
        (E.count
           ~opts:{ E.default with backend }
           ~vars:case.Test_differential.vars case.Test_differential.formula)
    in
    let reference = run E.Pugh in
    List.iter
      (fun (backend, bname) ->
        Alcotest.(check string)
          (Printf.sprintf "dense seed %d [%s] = pugh" seed bname)
          reference (run backend))
      backends
  done

(* The Auto heuristic must actually dispatch to gfcount somewhere in
   the battery — otherwise the identity checks above test nothing. *)
let metric_value name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Count n) -> n
  | _ -> 0

let test_gf_engaged () =
  let before = metric_value "engine.gf_clauses" in
  Test_differential.reset_world ();
  ignore
    (E.count
       ~opts:{ E.default with backend = E.Auto }
       ~vars:[ "x" ] Test_parallel.example4_formula);
  if metric_value "engine.gf_clauses" <= before then
    Alcotest.fail
      "Auto backend never dispatched to gfcount on the splinter-heavy E4";
  (* and the pure-Gf backend falls back (rather than failing) on a
     symbolic clause it cannot count *)
  let fb_before = metric_value "engine.gf_fallback" in
  Test_differential.reset_world ();
  ignore
    (E.count
       ~opts:{ E.default with backend = E.Gf }
       ~vars:[ "i"; "j" ] Test_parallel.example6_formula);
  if metric_value "engine.gf_fallback" <= fb_before then
    Alcotest.fail "Gf backend never took the per-clause Pugh fallback on E6"

(* ------------------------------------------------------------------ *)
(* Governor chaos: fault injection through the gfcount path. Each cone
   charges the budget, so fuel can run out mid-decomposition; the
   outcome must still be Complete-and-correct or a bracketing Partial.  *)

let chaos_property n =
  let seed = 300 + (n mod 150) in
  let case = Test_differential.gen_dense_case seed in
  Chaos.set None;
  Test_differential.reset_world ();
  let truth = Test_differential.brute case in
  List.iteri
    (fun i (backend, bname) ->
      Test_differential.reset_world ();
      let label = Printf.sprintf "gf-chaos case=%d [%s]" seed bname in
      Chaos.set ~rate:5 (Some (0x6fc0 + (n * 2) + i));
      let outcome =
        Fun.protect
          ~finally:(fun () -> Chaos.set None)
          (fun () ->
            G.count
              ~opts:{ E.default with backend }
              ~vars:case.Test_differential.vars case.Test_differential.formula)
      in
      Test_governor.check_chaos_outcome ~label ~truth ~strategy:E.Exact
        ~env:case.Test_differential.env outcome)
    backends;
  true

let chaos_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"gf chaos battery, jobs=1" ~count:80
       QCheck.(int_bound 10_000)
       chaos_property)

(* The same property on four handler domains at once (see
   [Test_governor.on_handler_domains]): two consecutive dense cases,
   each under both backends, one run per domain. *)
let chaos_handlers_property n =
  let cases =
    List.map
      (fun j ->
        let seed = 300 + ((n + j) mod 150) in
        let case = Test_differential.gen_dense_case seed in
        Chaos.set None;
        Test_differential.reset_world ();
        (seed, case, Test_differential.brute case))
      [ 0; 1 ]
  in
  let runs =
    List.concat_map
      (fun c -> List.map (fun b -> (c, b)) backends)
      cases
  in
  let outcomes, _ =
    Test_governor.on_handler_domains ~chaos_seed:(0x6fc0 + (n * 2))
      (List.map
         (fun ((_, case, _), (backend, _)) () ->
           G.count
             ~opts:{ E.default with backend }
             ~vars:case.Test_differential.vars case.Test_differential.formula)
         runs)
  in
  List.iter2
    (fun ((seed, case, truth), (_, bname)) outcome ->
      let label =
        Printf.sprintf "gf-chaos jobs=%d case=%d [%s]"
          Test_governor.handler_jobs seed bname
      in
      Test_governor.check_chaos_outcome ~label ~truth ~strategy:E.Exact
        ~env:case.Test_differential.env outcome)
    runs outcomes;
  true

let chaos_handlers_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         (Printf.sprintf "gf chaos battery, jobs=%d" Test_governor.handler_jobs)
       ~count:40
       QCheck.(int_bound 10_000)
       chaos_handlers_property)

(* Deterministic fuel trip through the gfcount path: tiny fuel on a
   dense case must yield a bracketing Partial, not a crash or a wrong
   Complete. *)
let test_fuel_partial_gf () =
  Chaos.set None;
  Test_differential.reset_world ();
  let case = Test_differential.gen_dense_case 302 in
  let truth = Test_differential.brute case in
  match
    G.count
      ~budget:{ G.unlimited with G.fuel = Some 3 }
      ~opts:{ E.default with backend = E.Gf }
      ~vars:case.Test_differential.vars case.Test_differential.formula
  with
  | G.Complete _ -> Alcotest.fail "3 fuel units completed a dense case"
  | G.Partial p ->
      Alcotest.(check string)
        "tripped on fuel" "fuel"
        (G.reason_name p.G.reason);
      Test_governor.check_chaos_outcome ~label:"gf fuel partial" ~truth
        ~strategy:E.Exact ~env:case.Test_differential.env (G.Partial p)

let suite =
  ( "gfcount",
    [
      Alcotest.test_case
        "EXPERIMENTS examples: gf/auto byte-identical across strategies and \
         jobs"
        `Quick test_examples_byte_identity;
      Alcotest.test_case "dense seeds 300-319: gf/auto byte-identical" `Quick
        test_dense_byte_identity;
      Alcotest.test_case "auto dispatches to gfcount; gf falls back" `Quick
        test_gf_engaged;
      chaos_qcheck;
      chaos_handlers_qcheck;
      Alcotest.test_case "tiny fuel through gfcount yields bracketing Partial"
        `Quick test_fuel_partial_gf;
    ] )
