(* Parallel-vs-serial battery across domains.

   The engine runs serially; parallelism is across omegad's handler
   domains, each running one request at a time under its own request
   context (Serve.Ctx: fresh-name counters and a memo epoch) while they
   share the memo shards, metrics and trace rings. A request's answer
   must not depend on that sharing: this file renders every
   EXPERIMENTS.md example and the differential harness's 300 seeded
   formulas, across all strategies, on two domains at once and demands
   the bytes of a serial rendering; stresses the shared observability
   layer (Obs.Metrics, Obs.Trace) from concurrent domains; and pins down
   the fresh-name counters directly. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module E = Counting.Engine
module L = Loopapps.Loopnest

let v s = A.var (V.named s)
let k n = A.of_int n

(* [check_battery units]: render every named unit serially (counter
   resets between units keep each rendering independent of history),
   then render the whole battery on two domains at once, each unit under
   a fresh request context as an omegad handler runs it, and demand
   byte-identical strings from both. *)
let domains = 2

let check_battery units =
  let reference =
    List.map
      (fun (name, compute) ->
        Test_differential.reset_world ();
        (name, compute ()))
      units
  in
  let render_concurrently () =
    List.map (fun (name, compute) -> (name, Serve.Ctx.with_request compute)) units
  in
  List.init domains (fun _ -> Domain.spawn render_concurrently)
  |> List.iteri (fun d h ->
         List.iter2
           (fun (name, a) (name', b) ->
             assert (String.equal name name');
             Alcotest.(check string)
               (Printf.sprintf "%s: domain %d byte-identical to serial" name d)
               a b)
           reference (Domain.join h))

(* ------------------------------------------------------------------ *)
(* The EXPERIMENTS.md examples (formulas mirror bench/main.ml)          *)

let render value = Counting.Value.to_string value

let query q =
  let p = Preslang.parse_query q in
  render (E.sum ~vars:p.Preslang.vars p.Preslang.formula p.Preslang.summand)

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

let strategies =
  [ (E.Exact, "exact"); (E.Symbolic, "symbolic"); (E.Upper, "upper");
    (E.Lower, "lower") ]

let example_units =
  [
    ("E0 intro 1", fun () -> query "count { i : 1 <= i <= 10 }");
    ("E0 intro 2", fun () -> query "count { i : 1 <= i <= n }");
    ( "E0 intro 3",
      fun () -> query "count { i, j : 1 <= i <= n and 1 <= j <= n }" );
    ("E0 intro 4", fun () -> query "count { i, j : 1 <= i < j <= n }");
    ( "E0b pitfall",
      fun () -> query "count { i, j : 1 <= i <= n and i <= j <= m }" );
    ( "E1 example 1",
      fun () -> render (E.count ~vars:[ "i"; "j"; "kk" ] example1_formula) );
    ( "E2 example 2",
      fun () -> render (E.count ~vars:[ "i"; "j"; "kk" ] example2_formula) );
    ( "E3 example 3",
      fun () -> render (E.count ~vars:[ "i"; "j" ] example3_formula) );
    ("E4 example 4", fun () -> render (E.count ~vars:[ "x" ] example4_formula));
    ( "E6 example 6",
      fun () -> render (E.count ~vars:[ "i"; "j" ] example6_formula) );
    ( "E6 merged",
      fun () ->
        render
          (Counting.Merge.merge_residues
             (E.count ~vars:[ "i"; "j" ] example6_formula)) );
    ("E5a SOR touched", fun () -> render (L.touched_count sor ~array:"a"));
    ( "E5b SOR cache lines",
      fun () -> render (L.cache_line_count sor ~array:"a" ~words:16 ~base:1) );
    ( "S33 HPF ownership",
      fun () ->
        render
          (Loopapps.Hpf.ownership_count
             { Loopapps.Hpf.procs = 4; block = 2 }
             ~proc:0) );
  ]
  @ List.concat_map
      (fun (strategy, sname) ->
        [
          ( Printf.sprintf "E1 [%s]" sname,
            fun () ->
              render
                (E.count
                   ~opts:{ E.default with strategy }
                   ~vars:[ "i"; "j"; "kk" ] example1_formula) );
          ( Printf.sprintf "E6 [%s]" sname,
            fun () ->
              render
                (E.count
                   ~opts:{ E.default with strategy }
                   ~vars:[ "i"; "j" ] example6_formula) );
        ])
      strategies

let test_examples () = check_battery example_units

(* ------------------------------------------------------------------ *)
(* Differential-harness seeds: all four strategies per seed             *)

let seed_units lo hi =
  List.concat_map
    (fun seed ->
      let case = Test_differential.gen_case seed in
      List.map
        (fun (strategy, sname) ->
          ( Printf.sprintf "seed %d [%s]" seed sname,
            fun () ->
              render
                (E.count
                   ~opts:{ E.default with strategy }
                   ~vars:case.Test_differential.vars
                   case.Test_differential.formula) ))
        strategies)
    (List.init (hi - lo + 1) (fun i -> lo + i))

let test_seed_block lo () = check_battery (seed_units lo (lo + 49))

(* ------------------------------------------------------------------ *)
(* Shared-observability stress                                          *)

let metric_value name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Count n) -> n
  | _ -> Alcotest.failf "metric %s missing or not a counter" name

let test_metrics_stress () =
  let c = Obs.Metrics.counter "test.parallel.stress" in
  let workers = 4 and iters = 100_000 in
  let before = metric_value "test.parallel.stress" in
  let ds =
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to iters do
              Obs.Metrics.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int)
    "no lost increments across domains" (workers * iters)
    (metric_value "test.parallel.stress" - before)

(* Many counts in flight at once on several domains must each still
   produce the correct number, and the merged trace must stay
   well-formed: every ring is a distinct tid with a thread_name record
   and a balanced span stream. *)
let test_concurrent_counts () =
  Test_trace.with_tracing (fun () ->
      let env name =
        if String.equal name "n" then Zint.of_int 30
        else Alcotest.failf "unbound %s" name
      in
      let expected =
        Counting.Value.eval env (E.count ~vars:[ "i"; "j" ] example6_formula)
      in
      let workers = 3 and rounds = 15 in
      let ds =
        List.init workers (fun _ ->
            Domain.spawn (fun () ->
                let ok = ref true in
                for _ = 1 to rounds do
                  let value = E.count ~vars:[ "i"; "j" ] example6_formula in
                  if not (Qnum.equal expected (Counting.Value.eval env value))
                  then ok := false
                done;
                !ok))
      in
      let oks = List.map Domain.join ds in
      Alcotest.(check (list bool))
        "every concurrent count correct"
        (List.init workers (fun _ -> true))
        oks;
      (* merged export: parse, then check nesting per tid *)
      let j = Test_trace.parse_json (Obs.Trace.to_chrome_json ()) in
      let events = Test_trace.trace_events_of_json j in
      Test_trace.check_nesting events;
      let tid_of e =
        match Test_trace.member_exn "tid" e with
        | Test_trace.Num f -> int_of_float f
        | _ -> Alcotest.fail "event without numeric tid"
      in
      let span_tids =
        List.filter_map
          (fun e ->
            match Test_trace.member_exn "ph" e with
            | Test_trace.JStr ("B" | "E" | "i") -> Some (tid_of e)
            | _ -> None)
          events
        |> List.sort_uniq compare
      in
      if List.length span_tids < 2 then
        Alcotest.failf "expected rings from several domains, got %d"
          (List.length span_tids);
      let named_tids =
        List.filter_map
          (fun e ->
            match
              (Test_trace.member_exn "ph" e, Test_trace.member "name" e)
            with
            | Test_trace.JStr "M", Some (Test_trace.JStr "thread_name") ->
                Some (tid_of e)
            | _ -> None)
          events
        |> List.sort_uniq compare
      in
      List.iter
        (fun tid ->
          if not (List.mem tid named_tids) then
            Alcotest.failf "ring tid %d has no thread_name record" tid;
          Test_trace.check_nesting
            (List.filter (fun e -> tid_of e = tid) events))
        span_tids)

(* ------------------------------------------------------------------ *)
(* Fresh-name counters never collide across domains                     *)

let no_collisions label mint =
  let workers = 4 and per = 20_000 in
  let ds =
    List.init workers (fun _ ->
        Domain.spawn (fun () -> List.init per (fun _ -> mint ())))
  in
  let names = List.concat_map Domain.join ds in
  Alcotest.(check int)
    (label ^ " unique across domains")
    (workers * per)
    (List.length (List.sort_uniq String.compare names))

let test_fresh_collisions () =
  no_collisions "wildcards" (fun () -> V.to_string (V.fresh_wild ()));
  no_collisions "sum vars" (fun () -> V.to_string (E.fresh_sum_var ()));
  Test_differential.reset_world ()

(* ------------------------------------------------------------------ *)
(* qcheck: Merge.combine is associative and order-insensitive up to
   Merge.canonical                                                      *)

(* Random single-variable pieces: interval-with-stride guards (as in
   test_crosscut) carrying small affine values. *)
let piece_gen =
  let open QCheck.Gen in
  let* lo = int_range (-10) 10 in
  let* len = int_range 0 8 in
  let* has_stride = bool in
  let* m = int_range 2 4 in
  let* r = int_range 0 3 in
  let* c0 = int_range (-3) 3 in
  let* c1 = int_range (-2) 2 in
  let geqs =
    [ A.add_const (v "i") (Zint.of_int (-lo)); A.sub (k (lo + len)) (v "i") ]
  in
  let strides =
    if has_stride then [ (Zint.of_int m, A.add_const (v "i") (Zint.of_int r)) ]
    else []
  in
  let value =
    Qpoly.add (Qpoly.of_int c0)
      (Qpoly.scale (Qnum.of_int c1) (Qpoly.var "i"))
  in
  return (Counting.Value.piece (Omega.Clause.make ~geqs ~strides ()) value)

let parts_gen =
  QCheck.make
    ~print:(fun (parts, salt) ->
      Printf.sprintf "salt %d: %s" salt
        (String.concat " ++ " (List.map Counting.Value.to_string parts)))
    QCheck.Gen.(
      pair (list_size (int_range 0 6) piece_gen) (int_range 0 1000))

let shuffle salt xs =
  let st = Random.State.make [| 0xda7a; salt |] in
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let prop_combine_canonical =
  QCheck.Test.make
    ~name:"combine is associative and order-insensitive up to canonical"
    ~count:100 parts_gen
    (fun (parts, salt) ->
      let canon ps =
        Counting.Value.to_string (Counting.Merge.canonical (Counting.Merge.combine ps))
      in
      let reference = canon parts in
      let permuted = canon (shuffle salt parts) in
      (* re-associate: fold pairwise from the left and from the right *)
      let left =
        List.fold_left
          (fun acc p -> Counting.Merge.combine [ acc; p ])
          Counting.Value.zero parts
      in
      let right =
        List.fold_right
          (fun p acc -> Counting.Merge.combine [ p; acc ])
          parts Counting.Value.zero
      in
      let canon1 v = Counting.Value.to_string (Counting.Merge.canonical v) in
      String.equal reference permuted
      && String.equal reference (canon1 left)
      && String.equal reference (canon1 right))

(* combine in index order is literally what the engine does with its
   branches, so also pin the stronger fact: it equals plain
   concatenation. *)
let prop_combine_is_concat =
  QCheck.Test.make ~name:"combine = index-order concatenation" ~count:50
    parts_gen (fun (parts, _) ->
      Counting.Merge.combine parts = List.concat parts)

let suite =
  ( "parallel",
    [
      Alcotest.test_case "EXPERIMENTS examples: parallel = serial" `Quick
        test_examples;
      Alcotest.test_case "seeds 0-49: parallel = serial" `Quick
        (test_seed_block 0);
      Alcotest.test_case "seeds 50-99: parallel = serial" `Quick
        (test_seed_block 50);
      Alcotest.test_case "seeds 100-149: parallel = serial" `Quick
        (test_seed_block 100);
      Alcotest.test_case "seeds 150-199: parallel = serial" `Quick
        (test_seed_block 150);
      Alcotest.test_case "seeds 200-249: parallel = serial" `Quick
        (test_seed_block 200);
      Alcotest.test_case "seeds 250-299: parallel = serial" `Quick
        (test_seed_block 250);
      Alcotest.test_case "metrics increments survive domain stress" `Quick
        test_metrics_stress;
      Alcotest.test_case "concurrent counts + merged trace" `Quick
        test_concurrent_counts;
      Alcotest.test_case "fresh names never collide across domains" `Quick
        test_fresh_collisions;
      QCheck_alcotest.to_alcotest prop_combine_canonical;
      QCheck_alcotest.to_alcotest prop_combine_is_concat;
    ] )
