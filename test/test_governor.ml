(* Resource governor and fault-injection battery (Counting.Governor,
   Counting.Chaos, Obs.Budget).

   The core claim under test: under ANY injected fault schedule — fuel
   exhaustion or deadline expiry at randomized checkpoints, across
   strategies, serially or with four handler domains sharing one
   fault schedule — a governed query
   either completes with the correct answer or returns a well-formed
   [Partial] whose bounds bracket the brute-force count. Never a hang,
   a crash, or a silently wrong total. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module E = Counting.Engine
module G = Counting.Governor
module Chaos = Counting.Chaos
module Value = Counting.Value

let k n = A.of_int n
let av s = A.var (V.named s)

(* Deterministic tests must not inherit an OMEGA_CHAOS seed from the
   environment (the CI chaos job exports one for the whole binary). *)
let no_chaos f =
  Chaos.set None;
  f ()

let qnum =
  Alcotest.testable
    (fun fmt q -> Format.pp_print_string fmt (Qnum.to_string q))
    Qnum.equal

(* ------------------------------------------------------------------ *)
(* Chaos battery: every injected fault is absorbed into a sound outcome *)

let strategies =
  [
    ("exact", E.Exact);
    ("symbolic", E.Symbolic);
    ("upper", E.Upper);
    ("lower", E.Lower);
  ]

(* Battery-wide tallies, asserted by the quota test after the qcheck
   battery has run. *)
let runs_with_injection = ref 0
let total_runs = ref 0
let completes_seen = ref 0
let partials_seen = ref 0

let check_chaos_outcome ~label ~truth ~strategy ~env outcome =
  let ev = Test_differential.env_fn env in
  match outcome with
  | G.Complete v -> (
      incr completes_seen;
      let got = Value.eval ev v in
      match strategy with
      | E.Exact | E.Symbolic ->
          Alcotest.check qnum (label ^ ": complete = brute") truth got
      | E.Upper ->
          if Qnum.compare got truth < 0 then
            Alcotest.failf "%s: upper-strategy complete %s < truth %s" label
              (Qnum.to_string got) (Qnum.to_string truth)
      | E.Lower ->
          if Qnum.compare got truth > 0 then
            Alcotest.failf "%s: lower-strategy complete %s > truth %s" label
              (Qnum.to_string got) (Qnum.to_string truth))
  | G.Partial p ->
      incr partials_seen;
      if p.G.clauses_total > 0 && p.G.clauses_done > p.G.clauses_total then
        Alcotest.failf "%s: clauses_done %d > clauses_total %d" label
          p.G.clauses_done p.G.clauses_total;
      if p.G.pieces_done <> List.length p.G.pieces then
        Alcotest.failf "%s: pieces_done %d <> |pieces| %d" label p.G.pieces_done
          (List.length p.G.pieces);
      let lower = Value.eval ev p.G.lower in
      if Qnum.compare lower truth > 0 then
        Alcotest.failf "%s: partial lower %s > truth %s (reason %s)" label
          (Qnum.to_string lower) (Qnum.to_string truth)
          (G.reason_name p.G.reason);
      (match p.G.upper with
      | None -> ()
      | Some u ->
          let upper = Value.eval ev u in
          if Qnum.compare upper truth < 0 then
            Alcotest.failf "%s: partial upper %s < truth %s (reason %s)" label
              (Qnum.to_string upper) (Qnum.to_string truth)
              (G.reason_name p.G.reason))

(* One chaos run: a differential-harness case, under all four
   strategies, with aggressive fault injection (about every 5th budget
   event). The chaos schedule is a pure function of (chaos seed, event
   index), so the whole battery is reproducible. *)
let chaos_property n =
  let case = Test_differential.gen_case (n mod 150) in
  Chaos.set None;
  Test_differential.reset_world ();
  let truth = Test_differential.brute case in
  List.iteri
    (fun i (sname, strategy) ->
      Test_differential.reset_world ();
      let label = Printf.sprintf "chaos case=%d [%s]" n sname in
      Chaos.set ~rate:5 (Some ((n * 4) + i));
      let before = Chaos.injections () in
      let outcome =
        Fun.protect
          ~finally:(fun () -> Chaos.set None)
          (fun () ->
            G.count
              ~opts:{ E.default with strategy }
              ~vars:case.Test_differential.vars case.Test_differential.formula)
      in
      incr total_runs;
      if Chaos.injections () > before then incr runs_with_injection;
      check_chaos_outcome ~label ~truth ~strategy
        ~env:case.Test_differential.env outcome)
    strategies;
  true

let chaos_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"chaos battery, jobs=1" ~count:120
       QCheck.(int_bound 10_000)
       chaos_property)

(* The jobs=4 batteries run governed queries on four handler domains at
   once, as omegad serves concurrent requests: each query runs under its
   own request context (Serve.Ctx) while all of them share one chaos
   schedule, so faults land wherever the interleaving puts them. Every
   outcome must still be sound. [on_handler_domains ~chaos_seed thunks]
   runs each thunk on its own domain, joins every domain before
   re-raising the first failure, and returns the results in order
   together with whether any fault fired during the batch. *)
let handler_jobs = 4

let on_handler_domains ~chaos_seed thunks =
  Chaos.set ~rate:5 (Some chaos_seed);
  let before = Chaos.injections () in
  let results =
    Fun.protect
      ~finally:(fun () -> Chaos.set None)
      (fun () ->
        List.map
          (fun f -> Domain.spawn (fun () -> Serve.Ctx.with_request f))
          thunks
        |> List.map (fun d ->
               match Domain.join d with
               | v -> Ok v
               | exception e -> Error e))
  in
  let injected = Chaos.injections () > before in
  (List.map (function Ok v -> v | Error e -> raise e) results, injected)

let handler_batches = ref 0
let handler_batches_with_injection = ref 0

(* One concurrent batch: a differential-harness case under all four
   strategies, one strategy per handler domain. *)
let chaos_handlers_property n =
  let case = Test_differential.gen_case (n mod 150) in
  Chaos.set None;
  Test_differential.reset_world ();
  let truth = Test_differential.brute case in
  let outcomes, injected =
    on_handler_domains ~chaos_seed:(0x4a0b + n)
      (List.map
         (fun (_, strategy) () ->
           G.count
             ~opts:{ E.default with strategy }
             ~vars:case.Test_differential.vars case.Test_differential.formula)
         strategies)
  in
  incr handler_batches;
  if injected then incr handler_batches_with_injection;
  List.iter2
    (fun (sname, strategy) outcome ->
      let label =
        Printf.sprintf "chaos jobs=%d case=%d [%s]" handler_jobs n sname
      in
      check_chaos_outcome ~label ~truth ~strategy
        ~env:case.Test_differential.env outcome)
    strategies outcomes;
  true

let chaos_handlers_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "chaos battery, jobs=%d" handler_jobs)
       ~count:60
       QCheck.(int_bound 10_000)
       chaos_handlers_property)

let test_chaos_quota () =
  if !runs_with_injection < 200 then
    Alcotest.failf
      "chaos battery too tame: only %d/%d runs had injected faults (need 200)"
      !runs_with_injection !total_runs;
  if !completes_seen = 0 then
    Alcotest.fail "chaos battery never exercised the Complete path";
  if !partials_seen = 0 then
    Alcotest.fail "chaos battery never exercised the Partial path";
  if !handler_batches_with_injection = 0 then
    Alcotest.failf "no fault fired in any of the %d jobs=%d batches"
      !handler_batches handler_jobs

(* ------------------------------------------------------------------ *)
(* Deadlines: prompt degradation, the engine stays reusable             *)

(* Coprime coefficients force splinter cascades; ungoverned this runs
   far past any test budget, so only its governed behaviour is
   observed. Every bound but the last mentions a summation variable, so
   the exact floor form (symbolic-only bounds) cannot shortcut the
   residue splinters. *)
let splinter_heavy =
  F.and_
    [
      F.geq (av "i") (k 1);
      F.leq (A.scale (Zint.of_int 97) (av "i")) (A.scale (Zint.of_int 89) (av "j"));
      F.leq (A.scale (Zint.of_int 53) (av "j")) (A.scale (Zint.of_int 47) (av "k"));
      F.leq (av "k") (av "n");
    ]

let test_deadline () =
  no_chaos (fun () ->
      Test_differential.reset_world ();
      let t0 = Unix.gettimeofday () in
      let outcome =
        G.count
          ~budget:{ G.unlimited with G.deadline_ms = Some 50 }
          ~vars:[ "i"; "j"; "k" ] splinter_heavy
      in
      let dt = Unix.gettimeofday () -. t0 in
      (* Generous ceiling: the point is "bounded", not "fast" — the
         shadow over-approximation run and a slow CI box both eat
         into this. *)
      if dt > 30. then
        Alcotest.failf "50ms deadline took %.1fs to return" dt;
      (match outcome with
      | G.Partial p ->
          Alcotest.(check string)
            "tripped on the deadline" "deadline"
            (G.reason_name p.G.reason)
      | G.Complete _ ->
          Alcotest.fail "splinter-heavy formula finished in 50ms?");
      (* The engine must be immediately reusable for a full-budget
         query that completes correctly. *)
      let case = Test_differential.gen_case 7 in
      Test_differential.reset_world ();
      let truth = Test_differential.brute case in
      match
        G.count ~vars:case.Test_differential.vars
          case.Test_differential.formula
      with
      | G.Complete v ->
          Alcotest.check qnum "engine reusable after deadline trip" truth
            (Value.eval
               (Test_differential.env_fn case.Test_differential.env)
               v)
      | G.Partial _ -> Alcotest.fail "unlimited rerun returned Partial")

(* ------------------------------------------------------------------ *)
(* Deterministic budget trips: fuel, clause cap, nesting guard          *)

let test_fuel_partial () =
  no_chaos (fun () ->
      Test_differential.reset_world ();
      let case = Test_differential.gen_case 11 in
      let truth = Test_differential.brute case in
      match
        G.count
          ~budget:{ G.unlimited with G.fuel = Some 3 }
          ~vars:case.Test_differential.vars case.Test_differential.formula
      with
      | G.Complete _ -> Alcotest.fail "3 fuel units completed a real case"
      | G.Partial p ->
          Alcotest.(check string)
            "tripped on fuel" "fuel"
            (G.reason_name p.G.reason);
          let ev = Test_differential.env_fn case.Test_differential.env in
          let lower = Value.eval ev p.G.lower in
          if Qnum.compare lower truth > 0 then
            Alcotest.failf "fuel-partial lower %s > truth %s"
              (Qnum.to_string lower) (Qnum.to_string truth);
          (match p.G.upper with
          | None -> Alcotest.fail "shadow upper should be cheap here"
          | Some u ->
              let upper = Value.eval ev u in
              if Qnum.compare upper truth < 0 then
                Alcotest.failf "fuel-partial upper %s < truth %s"
                  (Qnum.to_string upper) (Qnum.to_string truth)))

let test_clause_cap () =
  no_chaos (fun () ->
      Test_differential.reset_world ();
      (* A 3-way disjunction over a box: more DNF clauses than the cap. *)
      let box v = F.between (k 0) (av v) (k 5) in
      let f =
        F.and_
          [
            box "x";
            F.or_ [ F.eq (av "x") (k 1); F.eq (av "x") (k 2); F.geq (av "x") (k 4) ];
          ]
      in
      match
        G.count ~budget:{ G.unlimited with G.max_clauses = Some 1 } ~vars:[ "x" ] f
      with
      | G.Complete _ -> Alcotest.fail "clause cap 1 did not trip"
      | G.Partial p ->
          Alcotest.(check string)
            "tripped on clause cap" "clauses"
            (G.reason_name p.G.reason))

let test_ctrl_nesting () =
  no_chaos (fun () ->
      let c = Obs.Budget.make ~fuel:100 () in
      Obs.Budget.with_ctrl c (fun () ->
          match Obs.Budget.with_ctrl (Obs.Budget.make ()) (fun () -> ()) with
          | () -> Alcotest.fail "nested with_ctrl was allowed"
          | exception Invalid_argument _ -> ());
      (* and the outer block uninstalled cleanly *)
      Alcotest.(check bool) "no active ctrl" true (Obs.Budget.active () = None))

(* Tripping a tiny budget must not poison the memo tables: a rerun with
   no limits, on the warm tables, still matches brute force. *)
let test_memo_not_poisoned () =
  no_chaos (fun () ->
      Test_differential.reset_world ();
      let case = Test_differential.gen_case 23 in
      let truth = Test_differential.brute case in
      (match
         G.count
           ~budget:{ G.unlimited with G.fuel = Some 10 }
           ~vars:case.Test_differential.vars case.Test_differential.formula
       with
      | G.Partial _ | G.Complete _ -> ());
      (* deliberately NO reset: rerun on whatever the tripped run cached *)
      match
        G.count ~vars:case.Test_differential.vars case.Test_differential.formula
      with
      | G.Complete v ->
          Alcotest.check qnum "warm-after-trip rerun = brute" truth
            (Value.eval
               (Test_differential.env_fn case.Test_differential.env)
               v)
      | G.Partial _ -> Alcotest.fail "unlimited rerun returned Partial")

(* ------------------------------------------------------------------ *)
(* Governed Complete is byte-identical to the ungoverned engine         *)

let test_byte_identity () =
  no_chaos (fun () ->
      List.iter
        (fun seed ->
          let case = Test_differential.gen_case seed in
          List.iter
            (fun (sname, strategy) ->
              let opts = { E.default with strategy } in
              Test_differential.reset_world ();
              let plain =
                Value.to_string
                  (E.count ~opts ~vars:case.Test_differential.vars
                     case.Test_differential.formula)
              in
              let governed budget =
                Test_differential.reset_world ();
                match
                  G.count ?budget ~opts ~vars:case.Test_differential.vars
                    case.Test_differential.formula
                with
                | G.Complete v -> Value.to_string v
                | G.Partial _ -> Alcotest.failf "seed %d: unexpected Partial" seed
              in
              let label which =
                Printf.sprintf "seed %d [%s] %s = engine" seed sname which
              in
              Alcotest.(check string) (label "unlimited") plain (governed None);
              Alcotest.(check string)
                (label "generous")
                plain
                (governed
                   (Some
                      {
                        G.deadline_ms = Some 600_000;
                        fuel = Some 50_000_000;
                        max_fanout = Some 1_000_000;
                        max_clauses = Some 1_000_000;
                      })))
            strategies)
        [ 0; 17; 42 ])

(* ------------------------------------------------------------------ *)
(* Typed errors                                                         *)

let test_omega_error () =
  (match Omega.Error.fail ~phase:"test.phase" ~context:[ ("k", "v") ] "boom %d" 7 with
  | _ -> Alcotest.fail "Error.fail returned"
  | exception Omega.Error.Omega_error { phase; what; context } ->
      Alcotest.(check string) "phase" "test.phase" phase;
      Alcotest.(check string) "what" "boom 7" what;
      Alcotest.(check (list (pair string string))) "context" [ ("k", "v") ] context);
  let printed =
    Printexc.to_string
      (Omega.Error.Omega_error
         { phase = "solve.eliminate"; what = "no pivot"; context = [ ("var", "x") ] })
  in
  let expect = "Omega error [solve.eliminate]: no pivot (var=x)" in
  Alcotest.(check string) "registered printer output" expect printed

let suite =
  ( "governor",
    [
      chaos_qcheck;
      chaos_handlers_qcheck;
      Alcotest.test_case "chaos battery quota (>=200 injected-fault runs)"
        `Quick test_chaos_quota;
      Alcotest.test_case "50ms deadline degrades promptly, jobs=1" `Quick
        test_deadline;
      Alcotest.test_case "tiny fuel yields bracketing Partial" `Quick
        test_fuel_partial;
      Alcotest.test_case "clause cap trips" `Quick test_clause_cap;
      Alcotest.test_case "nested control blocks rejected" `Quick
        test_ctrl_nesting;
      Alcotest.test_case "budget trip does not poison the memo" `Quick
        test_memo_not_poisoned;
      Alcotest.test_case "governed Complete byte-identical to engine" `Quick
        test_byte_identity;
      Alcotest.test_case "Omega_error shape and printer" `Quick
        test_omega_error;
    ] )
