(* Certificates end to end (lib/cert + Counting.Certify + lib/certcheck).

   Four claims under test:
   - Corpus: every certificate built over the full 500-seed differential
     corpus is accepted by the independent replay checker — with both the
     exact and the overflow-trapping native int backend — and the
     checker's re-derived evaluation equals brute-force enumeration.
   - Tamper-evidence: JSON surgery on an accepted certificate (guard
     bound rewritten, summand perturbed, Farkas multiplier negated) makes
     the checker reject.
   - Degradation: under the governor's chaos battery (injected fuel /
     deadline faults, serially and on four handler domains at once),
     Partial certificates
     validate — the sound lower bound and the relaxation upper bound both
     replay, and they bracket the brute-force truth.
   - Robustness: [Obs.Ojson.parse] never raises on adversarial input and
     parse ∘ render is the identity on the certificate schema.

   Arming the recorder must also be observationally silent: the answer
   with certification on is byte-identical to the answer with it off. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module E = Counting.Engine
module G = Counting.Governor
module Chaos = Counting.Chaos
module Certify = Counting.Certify
module J = Obs.Ojson
module Td = Test_differential

let k n = A.of_int n
let av s = A.var (V.named s)

let ats_of env = [ List.map (fun (n, x) -> (n, Zint.of_int x)) env ]

let truth_string q =
  match Qnum.to_zint q with
  | Some z -> Zint.to_string z
  | None -> Alcotest.failf "non-integral brute-force count %s" (Qnum.to_string q)

(* Build a complete certificate the way [omcount --certify] does: record
   around the computation, assemble after. *)
let build_complete ?(opts = E.default) ~query ~vars ~ats formula =
  Td.reset_world ();
  let value, events, dropped =
    Certify.with_recording (fun () -> E.count ~opts ~vars formula)
  in
  ( value,
    Certify.build ~opts ~vars ~summand:Qpoly.one ~query ~ats
      ~outcome:(Certify.Complete value) ~events ~dropped formula )

(* Certificates cross a serialization boundary in real use (JSONL file
   between omcount and omcheck); every test checks the reparsed form so
   the render/parse path is always on the trust chain. *)
let reparse cert =
  let s = J.render cert in
  match J.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "rendered certificate failed to reparse: %s" e

(* ------------------------------------------------------------------ *)
(* Corpus: both checker backends accept, eval matches brute force       *)

let check_corpus_seed seed =
  let dense = seed >= 300 in
  let case = if dense then Td.gen_dense_case seed else Td.gen_case seed in
  let truth = truth_string (Td.brute case) in
  (* Base seeds certify through the Pugh engine, so its drop paths keep
     witness coverage; dense seeds take the default pipeline (they splinter
     heavily under Pugh, and the planner's gf routing is what the family
     exists to stress). *)
  let opts = if dense then E.default else { E.default with backend = E.Pugh } in
  let _, cert =
    build_complete ~opts
      ~query:(Printf.sprintf "corpus %d" seed)
      ~vars:case.Td.vars ~ats:(ats_of case.Td.env) case.Td.formula
  in
  let cert = reparse cert in
  (match Certcheck.check_exact cert with
  | Certcheck.Accepted s -> (
      match s.Certcheck.evals with
      | [ { Certcheck.value = Some v; _ } ] ->
          if v <> truth then
            Alcotest.failf "seed %d: certificate eval %s, brute force %s" seed
              v truth
      | _ ->
          Alcotest.failf "seed %d: expected exactly one complete eval entry"
            seed)
  | Certcheck.Rejected msg ->
      Alcotest.failf "seed %d: exact checker rejected: %s" seed msg
  | Certcheck.Overflowed ->
      Alcotest.failf "seed %d: exact checker reported overflow" seed);
  (* The native backend may overflow out (small corpus makes that rare),
     but a rejection that is not an overflow is a backend disagreement. *)
  match Certcheck.check_native cert with
  | Certcheck.Accepted _ | Certcheck.Overflowed -> ()
  | Certcheck.Rejected msg ->
      Alcotest.failf "seed %d: native checker rejected what exact accepted: %s"
        seed msg

let test_corpus_block lo () =
  for seed = lo to lo + 99 do
    check_corpus_seed seed
  done

(* ------------------------------------------------------------------ *)
(* Arming the recorder never changes the answer, and the certificate
   itself is deterministic across repeated runs.                        *)

let test_certify_observational () =
  List.iter
    (fun seed ->
      let case = Td.gen_case seed in
      let run_plain () =
        Td.reset_world ();
        Counting.Value.to_string (E.count ~vars:case.Td.vars case.Td.formula)
      in
      let run_certified () =
        let value, cert =
          build_complete
            ~query:(Printf.sprintf "identity %d" seed)
            ~vars:case.Td.vars ~ats:(ats_of case.Td.env) case.Td.formula
        in
        (Counting.Value.to_string value, J.render cert)
      in
      let plain = run_plain () in
      let certified, cert = run_certified () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d answer unchanged" seed)
        plain certified;
      Alcotest.(check string)
        (Printf.sprintf "seed %d certificate deterministic" seed)
        cert (snd (run_certified ())))
    [ 17; 42; 301 ]

(* ------------------------------------------------------------------ *)
(* Tamper-evidence: targeted JSON surgery must be rejected              *)

let update_field name f = function
  | J.Obj kvs ->
      J.Obj (List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) kvs)
  | j -> j

let update_nth n f = function
  | J.Arr xs -> J.Arr (List.mapi (fun i x -> if i = n then f x else x) xs)
  | j -> j

let assert_rejected name orig mutated =
  if J.render orig = J.render mutated then
    Alcotest.failf "%s: surgery did not change the certificate" name;
  match Certcheck.check_exact mutated with
  | Certcheck.Rejected _ -> ()
  | Certcheck.Accepted _ ->
      Alcotest.failf "%s: checker accepted a mutated certificate" name
  | Certcheck.Overflowed ->
      Alcotest.failf "%s: exact backend reported overflow" name

(* count { x : 1 <= x <= n } at n = 10: one piece, value n, eval 10. *)
let interval_cert () =
  let formula = F.between (k 1) (av "x") (av "n") in
  snd
    (build_complete ~query:"mutation base" ~vars:[ "x" ]
       ~ats:[ [ ("n", Zint.of_int 10) ] ]
       formula)

let test_mutation_guard_bound () =
  let cert = reparse (interval_cert ()) in
  (* Rewrite every inequality constant in the first piece's guard to
     -100: the guard region moves, the claimed eval no longer replays. *)
  let mutated =
    update_field "pieces"
      (update_nth 0
         (update_field "guard"
            (update_field "geqs"
               (function
                 | J.Arr rows ->
                     J.Arr
                       (List.map
                          (update_field "c" (fun _ -> J.Str "-100"))
                          rows)
                 | j -> j))))
      cert
  in
  assert_rejected "guard bound" cert mutated

let test_mutation_summand () =
  let cert = reparse (interval_cert ()) in
  (* Scale the first monomial of the first piece's polynomial by 7. *)
  let mutated =
    update_field "pieces"
      (update_nth 0
         (update_field "value"
            (update_nth 0
               (update_field "q" (fun _ -> J.Arr [ J.Str "7"; J.Str "1" ])))))
      cert
  in
  assert_rejected "summand" cert mutated

let test_mutation_farkas () =
  (* 1 <= i <= n and i <= 0 is contradictory at the DNF level and gets a
     Farkas witness. *)
  let formula =
    F.and_ [ F.between (k 1) (av "i") (av "n"); F.leq (av "i") (k 0) ]
  in
  let _, cert =
    build_complete ~query:"farkas base" ~vars:[ "i" ]
      ~ats:[ [ ("n", Zint.of_int 10) ] ]
      formula
  in
  let cert = reparse cert in
  let is_farkas entry =
    match J.member "witness" entry with
    | Some w -> J.member "kind" w = Some (J.Str "farkas")
    | None -> false
  in
  (match J.member "refuted" cert with
  | Some (J.Arr entries) when List.exists is_farkas entries -> ()
  | _ -> Alcotest.fail "expected a Farkas-witnessed refuted entry");
  let negate_lambda = function
    | J.Arr [ kind; idx; J.Str lam ] ->
        let lam =
          if lam = "0" then "1"
          else if String.length lam > 0 && lam.[0] = '-' then
            String.sub lam 1 (String.length lam - 1)
          else "-" ^ lam
        in
        J.Arr [ kind; idx; J.Str lam ]
    | j -> j
  in
  let mutated =
    update_field "refuted"
      (function
        | J.Arr entries ->
            J.Arr
              (List.map
                 (fun e ->
                   if is_farkas e then
                     update_field "witness"
                       (update_field "lambda" (function
                         | J.Arr terms -> J.Arr (List.map negate_lambda terms)
                         | j -> j))
                       e
                   else e)
                 entries)
        | j -> j)
      cert
  in
  assert_rejected "farkas lambda" cert mutated

(* ------------------------------------------------------------------ *)
(* Chaos battery: Partial certificates validate under injected faults   *)

let chaos_total_runs = ref 0
let chaos_injected_runs = ref 0
let chaos_partials = ref 0

let strategies =
  [
    ("exact", E.Exact);
    ("symbolic", E.Symbolic);
    ("upper", E.Upper);
    ("lower", E.Lower);
  ]

let check_bracket ~label ~truth (s : Certcheck.summary) =
  let truth_z =
    match Qnum.to_zint truth with
    | Some z -> z
    | None -> Alcotest.failf "%s: non-integral truth" label
  in
  List.iter
    (fun (e : Certcheck.eval_entry) ->
      (match e.Certcheck.lower with
      | Some lo when Zint.compare (Zint.of_string lo) truth_z > 0 ->
          Alcotest.failf "%s: certified lower %s > truth %s" label lo
            (Zint.to_string truth_z)
      | _ -> ());
      match e.Certcheck.upper with
      | Some hi when Zint.compare (Zint.of_string hi) truth_z < 0 ->
          Alcotest.failf "%s: certified upper %s < truth %s" label hi
            (Zint.to_string truth_z)
      | _ -> ())
    s.Certcheck.evals

(* Tally one chaos outcome, then replay its certificate: the checker
   must accept, and partial bounds that replayed must also bracket the
   truth — soundness of what was certified, not just internal
   consistency. (Complete outcomes under Upper / Lower strategies are
   deliberate approximations, so only partial entries carry bracketing
   claims.) *)
let check_chaos_cert ~label ~truth (outcome, cert) =
  (match outcome with
  | G.Partial _ -> incr chaos_partials
  | G.Complete _ -> ());
  match Certcheck.check_exact (reparse cert) with
  | Certcheck.Accepted s ->
      if s.Certcheck.status = "partial" then check_bracket ~label ~truth s
  | Certcheck.Rejected msg -> Alcotest.failf "%s: checker rejected: %s" label msg
  | Certcheck.Overflowed -> Alcotest.failf "%s: exact backend overflow" label

(* A recorded governed count of [case] and the certificate built from it. *)
let certified_count ~label ~opts (case : Td.case) () =
  let (outcome, events, dropped) =
    Certify.with_recording (fun () ->
        G.count ~opts ~vars:case.Td.vars case.Td.formula)
  in
  ( outcome,
    Certify.build ~opts ~vars:case.Td.vars ~summand:Qpoly.one ~query:label
      ~ats:(ats_of case.Td.env) ~outcome ~events ~dropped case.Td.formula )

let chaos_cert_property n =
  let case = Td.gen_case (n mod 150) in
  Chaos.set None;
  Td.reset_world ();
  let truth = Td.brute case in
  List.iteri
    (fun i (sname, strategy) ->
      let label = Printf.sprintf "chaos-cert n=%d [%s]" n sname in
      let opts = { E.default with strategy } in
      Td.reset_world ();
      Chaos.set ~rate:5 (Some ((n * 4) + i));
      let before = Chaos.injections () in
      let result =
        Fun.protect
          ~finally:(fun () -> Chaos.set None)
          (certified_count ~label ~opts case)
      in
      incr chaos_total_runs;
      if Chaos.injections () > before then incr chaos_injected_runs;
      check_chaos_cert ~label ~truth result)
    strategies;
  true

let chaos_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"chaos certificate battery, jobs=1" ~count:70
       QCheck.(int_bound 10_000)
       chaos_cert_property)

(* The same property on four handler domains at once (see
   [Test_governor.on_handler_domains]): one strategy per domain, each
   recording and building its certificate under its own request
   context. *)
let chaos_cert_handlers_property n =
  let case = Td.gen_case (n mod 150) in
  Chaos.set None;
  Td.reset_world ();
  let truth = Td.brute case in
  let label sname =
    Printf.sprintf "chaos-cert jobs=%d n=%d [%s]" Test_governor.handler_jobs n
      sname
  in
  let results, _ =
    Test_governor.on_handler_domains ~chaos_seed:(0x5c3d + n)
      (List.map
         (fun (sname, strategy) ->
           certified_count ~label:(label sname)
             ~opts:{ E.default with strategy } case)
         strategies)
  in
  List.iter2
    (fun (sname, _) result -> check_chaos_cert ~label:(label sname) ~truth result)
    strategies results;
  true

let chaos_handlers_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         (Printf.sprintf "chaos certificate battery, jobs=%d"
            Test_governor.handler_jobs)
       ~count:35
       QCheck.(int_bound 10_000)
       chaos_cert_handlers_property)

let test_chaos_quota () =
  if !chaos_injected_runs < 200 then
    Alcotest.failf
      "chaos certificate battery too tame: only %d/%d runs had injected \
       faults (need 200)"
      !chaos_injected_runs !chaos_total_runs;
  if !chaos_partials = 0 then
    Alcotest.fail "chaos certificate battery never produced a Partial"

(* ------------------------------------------------------------------ *)
(* Ojson robustness: total parser, schema round-trip                    *)

let test_parse_adversarial () =
  let adversarial =
    [
      "\"\\u12";                          (* truncated unicode escape *)
      "\"\\ud800\"";                      (* lone high surrogate *)
      "\"\\udfff tail\"";                 (* lone low surrogate *)
      "\"\\";                             (* truncated escape at EOF *)
      "1e99999";                          (* overflows to infinity *)
      "-1e-99999";                        (* underflows to zero *)
      String.make 100 '9';                (* huge integer literal *)
      "[1,";                              (* truncated array *)
      "{\"k\" 1}";                        (* missing colon *)
      "nul";                              (* truncated keyword *)
      "\"\xc3\x28\"";                     (* invalid UTF-8 sequence *)
      "";
    ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ | Error _ -> ())
    adversarial;
  (* Nesting past the internal cap is an Error, not a stack overflow. *)
  (match J.parse (String.make 600 '[' ^ String.make 600 ']') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "600-deep nesting should exceed the depth cap");
  (* At the cap boundary the parser still works. *)
  match J.parse (String.make 100 '[' ^ "0" ^ String.make 100 ']') with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "100-deep nesting should parse: %s" e

(* A number stays a float unless no double holds its literal. *)
let test_number_literals () =
  let parses s expected =
    Alcotest.(check bool) ("parse " ^ s) true (J.parse s = Ok expected)
  in
  parses "42" (J.Num 42.);
  parses "-0.5" (J.Num (-0.5));
  parses "9007199254740992" (J.Num 0x1p53);
  parses "1e15" (J.Num 1e15);
  parses "9007199254740993" (J.Lit "9007199254740993");
  parses "-123456789012345678901" (J.Lit "-123456789012345678901");
  parses "1e400" (J.Lit "1e400");
  (* past 2^52 only an integer's own digits are a Num: these would
     round, or hide an integer behind a fraction or exponent *)
  parses "1e23" (J.Lit "1e23");
  parses "9007199254740993.0" (J.Lit "9007199254740993.0");
  parses "4503599627370496.5" (J.Lit "4503599627370496.5");
  (* below 2^52 an integral double must be the literal's exact value *)
  parses "1.0" (J.Num 1.);
  parses "2500e-2" (J.Num 25.);
  parses "1.00000000000000000001" (J.Lit "1.00000000000000000001");
  parses "1e-400" (J.Lit "1e-400");
  (* a literal kept verbatim must be a JSON number *)
  List.iter
    (fun s ->
      Alcotest.(check bool) ("reject " ^ s) true (Result.is_error (J.parse s)))
    [ "+1e400"; ".5e400"; "01e400"; "1.e400"; "1e+" ];
  Alcotest.(check (option int)) "to_int, past max_int as Num" None
    (J.to_int (J.Num 0x1p62));
  Alcotest.(check (option int))
    "to_int" (Some 9007199254740993)
    (J.to_int (J.Lit "9007199254740993"));
  Alcotest.(check (option int)) "to_int, past max_int" None
    (J.to_int (J.Lit "123456789012345678901"));
  Alcotest.(check (option (float 0.))) "to_float, overflow" (Some infinity)
    (J.to_float (J.Lit "1e400"));
  Alcotest.(check string) "render" {|[9007199254740993,0.500]|}
    (J.render (J.Arr [ J.int 9007199254740993; J.fixed 3 0.5 ]))

let json_gen =
  let open QCheck.Gen in
  let dedup kvs =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (key, _) ->
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      kvs
  in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        (* integral floats round-trip exactly; that is all the cert
           schema ever encodes as Num *)
        map (fun n -> J.Num (float_of_int n)) (int_range (-1_000_000) 1_000_000);
        map (fun s -> J.Str s) (string_size ~gen:printable (int_bound 12));
        (* integral doubles past 2^52 that render as their own digits
           stay Num ... *)
        map (fun k -> J.Num (Float.ldexp 1. k)) (int_range 52 56);
        (* ... while odd integers past 2^53, which no double holds, and
           overflowing literals come back as the literal itself *)
        map3
          (fun neg mid last ->
            J.Lit (Printf.sprintf "%s%s%c" (if neg then "-" else "") mid last))
          bool
          (map2 (Printf.sprintf "%c%s") (char_range '1' '9')
             (string_size ~gen:numeral (int_range 15 40)))
          (oneofl [ '1'; '3'; '5'; '7'; '9' ]);
        map
          (fun s -> J.Lit s)
          (oneofl
             [ "1e400"; "-1e400"; "2E999"; "1e23"; "1e+16"; "9007199254740993.0" ]);
      ]
  in
  let rec go depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (2, scalar);
          (1, map (fun xs -> J.Arr xs) (list_size (int_bound 4) (go (depth - 1))));
          ( 1,
            map
              (fun kvs -> J.Obj (dedup kvs))
              (list_size (int_bound 4)
                 (pair (string_size ~gen:printable (int_bound 8)) (go (depth - 1))))
          );
        ]
  in
  go 3

let fuzz_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ojson parse∘render = id" ~count:300
       (QCheck.make ~print:J.render json_gen)
       (fun j -> J.parse (J.render j) = Ok j))

let fuzz_parse_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ojson parse never raises" ~count:500
       QCheck.(string_of_size (QCheck.Gen.int_bound 60))
       (fun s ->
         match J.parse s with
         | Ok _ | Error _ -> true))

(* Corrupt a real certificate line — truncations and byte flips — and
   the parser must stay total; intact, it must round-trip exactly. *)
let fuzz_cert_corruption =
  let line = lazy (J.render (interval_cert ())) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ojson corrupted certificate lines" ~count:200
       QCheck.(pair small_nat small_nat)
       (fun (i, b) ->
         let line = Lazy.force line in
         let len = String.length line in
         let truncated = String.sub line 0 (i mod (len + 1)) in
         (match J.parse truncated with Ok _ | Error _ -> ());
         let flipped = Bytes.of_string line in
         Bytes.set flipped (i mod len) (Char.chr (b mod 256));
         (match J.parse (Bytes.to_string flipped) with Ok _ | Error _ -> ());
         true))

let test_cert_roundtrip () =
  let cert = interval_cert () in
  let rendered = J.render cert in
  match J.parse rendered with
  | Ok j ->
      Alcotest.(check string) "certificate round-trips byte-for-byte" rendered
        (J.render j)
  | Error e -> Alcotest.failf "certificate failed to parse: %s" e

(* ------------------------------------------------------------------ *)

(* Certificates of the shared query runner sort the evaluation point by
   name, so they do not depend on the order the bindings were given in,
   and they equal the certificate omegad splices into its body for the
   same request. *)
let test_binding_order () =
  let source = "count { i, j : 1 <= i <= n and 1 <= j <= m and 2*i <= 3*j }" in
  let q = Preslang.parse_query source in
  let cert at =
    (* a fresh request context, as omegad gives each request *)
    Serve.Ctx.with_request (fun () ->
        let r =
          Counting.Query.run ~label:"omcount" ~opts:E.default
            ~budget:G.unlimited ~merge:true ~certify:true ~instr:false ~at
            ~source ~vars:q.Preslang.vars ~summand:q.Preslang.summand
            q.Preslang.formula
        in
        J.render (Option.get r.Counting.Query.certificate))
  in
  let z = Zint.of_int in
  let nm = cert [ ("n", z 5); ("m", z 3) ] in
  Alcotest.(check string) "binding order" nm (cert [ ("m", z 3); ("n", z 5) ]);
  Test_serve.with_server (fun path ->
      let c = Serve.Client.connect ~retries:20 path in
      let resp =
        Serve.Client.request c
          (J.render
             (J.Obj
                [
                  ("id", J.int 1);
                  ("query", J.Str source);
                  ("at", J.Obj [ ("n", J.int 5); ("m", J.int 3) ]);
                  ("certify", J.Bool true);
                ]))
      in
      Serve.Client.close c;
      match J.parse resp with
      | Ok o -> (
          match J.member "certificate" o with
          | Some served ->
              Alcotest.(check string) "omegad certificate" nm (J.render served)
          | None -> Alcotest.failf "no certificate in %s" resp)
      | Error e -> Alcotest.failf "response does not parse: %s" e)

let suite =
  ( "cert",
    [
      Alcotest.test_case "corpus seeds 0-99" `Slow (test_corpus_block 0);
      Alcotest.test_case "corpus seeds 100-199" `Slow (test_corpus_block 100);
      Alcotest.test_case "corpus seeds 200-299" `Slow (test_corpus_block 200);
      Alcotest.test_case "corpus seeds 300-399" `Slow (test_corpus_block 300);
      Alcotest.test_case "corpus seeds 400-499" `Slow (test_corpus_block 400);
      Alcotest.test_case "certify is observationally silent" `Quick
        test_certify_observational;
      Alcotest.test_case "mutation: guard bound" `Quick
        test_mutation_guard_bound;
      Alcotest.test_case "mutation: summand" `Quick test_mutation_summand;
      Alcotest.test_case "mutation: farkas multiplier" `Quick
        test_mutation_farkas;
      chaos_qcheck;
      chaos_handlers_qcheck;
      Alcotest.test_case "chaos battery quota" `Quick test_chaos_quota;
      Alcotest.test_case "ojson adversarial inputs" `Quick
        test_parse_adversarial;
      Alcotest.test_case "ojson number literals" `Quick test_number_literals;
      fuzz_roundtrip;
      fuzz_parse_total;
      fuzz_cert_corruption;
      Alcotest.test_case "certificate json round-trip" `Quick
        test_cert_roundtrip;
      Alcotest.test_case "certificate independent of binding order" `Quick
        test_binding_order;
    ] )
