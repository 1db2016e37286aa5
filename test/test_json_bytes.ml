(* Golden bytes for every published JSON emitter: the omcount/omegad
   answer bodies, the omegad protocol bodies, the --stats report line,
   the omegacount.card.v1 report card and the flight-recorder event of a
   post-mortem bundle. Each expectation is a literal string, so any
   change to field order, number formatting or string escaping shows up
   here, whatever writer produces the bytes. *)

let check name expected actual = Alcotest.(check string) name expected actual

(* n^2 under n = 2^40 evaluates to 2^80, past both 2^53 and 2^63. *)
let n = Qpoly.var "n"
let n_squared = Counting.Value.piece Omega.Clause.top (Qpoly.mul n n)
let big_at = [ ("n", Zint.of_string "1099511627776") ]

let test_complete () =
  check "complete, eval > 2^63"
    {|{"status":"complete","value":"(n^2)","eval":1208925819614629174706176}|}
    (Counting.Answer.complete_json ~at:big_at n_squared);
  check "complete, unbound parameter" {|{"status":"complete","value":"(n^2)"}|}
    (Counting.Answer.complete_json ~at:[] n_squared)

let partial upper =
  {
    Counting.Governor.pieces = Counting.Value.piece Omega.Clause.top n;
    pieces_done = 1;
    clauses_done = 2;
    clauses_total = 5;
    reason = Counting.Governor.Fuel;
    lower = Counting.Value.piece Omega.Clause.top n;
    upper;
  }

let test_partial () =
  check "partial, upper = None"
    {|{"status":"partial","reason":"fuel","pieces_done":1,"clauses_done":2,"clauses_total":5,"pieces":"(n)","lower":"(n)","upper":null,"bounds":{"lower":1099511627776}}|}
    (Counting.Answer.partial_json ~at:big_at (partial None));
  check "partial, upper = Some _"
    {|{"status":"partial","reason":"fuel","pieces_done":1,"clauses_done":2,"clauses_total":5,"pieces":"(n)","lower":"(n)","upper":"(n^2)","bounds":{"lower":1099511627776,"upper":1208925819614629174706176}}|}
    (Counting.Answer.partial_json ~at:big_at (partial (Some n_squared)));
  check "partial, no bindings"
    {|{"status":"partial","reason":"fuel","pieces_done":1,"clauses_done":2,"clauses_total":5,"pieces":"(n)","lower":"(n)","upper":"(n^2)","bounds":{}}|}
    (Counting.Answer.partial_json ~at:[] (partial (Some n_squared)))

let nasty = "say \"hi\" \\ back\nslash\x01"

let test_proto () =
  check "error body"
    {|{"status":"error","class":"bad_request","message":"say \"hi\" \\ back\nslash\u0001"}|}
    (Serve.Proto.error_body ~cls:"bad_request" ~msg:nasty);
  check "shed body" {|{"status":"shed","queue_depth":65,"limit":64}|}
    (Serve.Proto.shed_body ~depth:65 ~limit:64);
  check "metrics body"
    {|{"status":"ok","metrics":"# TYPE a counter\na_total 3\nsay \"hi\" \\ back\nslash\u0001"}|}
    (Serve.Proto.metrics_body ("# TYPE a counter\na_total 3\n" ^ nasty));
  check "pong body" {|{"status":"ok","pong":true}|} Serve.Proto.pong_body;
  check "shutdown body" {|{"status":"ok","stopping":true}|}
    Serve.Proto.shutdown_body;
  check "with_id" {|{"id":"x\"y","status":"ok","pong":true}|}
    (Serve.Proto.with_id (Obs.Ojson.Str "x\"y") Serve.Proto.pong_body);
  check "with_id, empty body" {|{"id":7}|}
    (Serve.Proto.with_id (Obs.Ojson.Num 7.) "{}")

let report =
  {
    Counting.Instr.label = "E\"1\"";
    wall_s = 0.1234567;
    phases = [ ("dnf", (0.25, 3)); ("sum", (1.0000004, 12)) ];
    memo =
      {
        Omega.Memo.feas_queries = 10;
        feas_hits = 4;
        elim_queries = 3;
        elim_hits = 1;
        gist_queries = 0;
        gist_hits = 0;
        eliminations = 7;
        evictions = 0;
      };
    counts = [ ("splinters", 2); ("pieces", 5) ];
    metrics =
      [
        ("planner.probes", Obs.Metrics.Count 8);
        ("planner.probe_refuted", Obs.Metrics.Count 3);
        ("pool.inflight", Obs.Metrics.Level 2);
        ( "solve.elim_fanout",
          Obs.Metrics.Hist
            { bounds = [| 1; 4; 16 |]; counts = [| 2; 0; 1; 0 |]; count = 3; sum = 9 } );
      ];
    options = [ ("strategy", "exact"); ("backend", "auto\n") ];
    minor_words = 123456.;
    promoted_words = 0.;
    major_words = 4096.;
  }

let report_json =
  {|{"label":"E\"1\"","wall_s":0.123457,"options":{"strategy":"exact","backend":"auto\n"},"phases":{"dnf":{"seconds":0.250000,"entries":3},"sum":{"seconds":1.000000,"entries":12}},"memo":{"feas_queries":10,"feas_hits":4,"elim_queries":3,"elim_hits":1,"gist_queries":0,"gist_hits":0,"eliminations":7,"evictions":0},"gc":{"minor_words":123456,"promoted_words":0,"major_words":4096},"engine":{"splinters":2,"pieces":5},"metrics":{"planner.probes":8,"planner.probe_refuted":3,"pool.inflight":2,"solve.elim_fanout":{"buckets":[1,4,16],"counts":[2,0,1,0],"count":3,"sum":9}}}|}

let test_instr () =
  check "Instr.to_json" report_json (Counting.Instr.to_json report);
  check "Instr.to_json, empty optional sections"
    {|{"label":"run","wall_s":2.000000,"phases":{},"memo":{"feas_queries":0,"feas_hits":0,"elim_queries":0,"elim_hits":0,"gist_queries":0,"gist_hits":0,"eliminations":0,"evictions":0},"gc":{"minor_words":0,"promoted_words":0,"major_words":0}}|}
    (Counting.Instr.to_json
       {
         report with
         label = "run";
         wall_s = 2.;
         phases = [];
         memo = Omega.Memo.zero_counters ();
         counts = [];
         metrics = [];
         options = [];
         minor_words = 0.;
         major_words = 0.;
       })

let card outcome =
  {
    Counting.Telemetry.fingerprint = "125cf5c719d10c3f";
    query = "q\"uery";
    vars = [ "i"; "j\\" ];
    outcome;
    clauses =
      [
        {
          Counting.Telemetry.index = 0;
          rows = 4;
          backend = "pugh";
          predicted_fanout = 2;
          order = [ "j"; "i" ];
        };
        { index = 1; rows = 2; backend = "gf"; predicted_fanout = 1; order = [] };
      ];
    clauses_total = 2;
    report;
  }

let test_card () =
  check "Telemetry.to_json, complete"
    ({|{"schema":"omegacount.card.v1","fingerprint":"125cf5c719d10c3f","query":"q\"uery","vars":["i","j\\"],"outcome":{"status":"complete"},"clauses_total":2,"clauses":[{"index":0,"rows":4,"backend":"pugh","predicted_fanout":2,"order":["j","i"]},{"index":1,"rows":2,"backend":"gf","predicted_fanout":1,"order":[]}],"rates":{"memo_feas_pct":40.00,"memo_elim_pct":33.33,"memo_gist_pct":0.00,"prefilter_probes":8,"prefilter_refuted_pct":37.50},"budget":{"fuel_used":0,"trips":0,"injections":0},"report":|}
    ^ report_json ^ "}")
    (Counting.Telemetry.to_json (card Counting.Telemetry.Complete));
  let outcome_of json =
    match Obs.Ojson.parse json with
    | Ok j -> Obs.Ojson.render (Obs.Ojson.member_exn "outcome" j)
    | Error e -> Alcotest.fail e
  in
  check "card outcome, partial" {|{"status":"partial","reason":"fuel"}|}
    (outcome_of (Counting.Telemetry.to_json (card (Counting.Telemetry.Partial "fuel"))));
  check "card outcome, failed" {|{"status":"failed","error":"omega\n"}|}
    (outcome_of
       (Counting.Telemetry.to_json (card (Counting.Telemetry.Failed "omega\n"))))

let test_flight () =
  let event_json e = Obs.Ojson.render (Obs.Flight.to_ojson e) in
  check "Flight.event_json"
    {|{"ts":1.500000,"name":"plan \"x\"","attrs":{"clause":"3","why":"tab\u0009here"}}|}
    (event_json
       { Obs.Flight.ts = 1.5; name = "plan \"x\""; attrs = [ ("clause", "3"); ("why", "tab\there") ] });
  check "Flight.event_json, no attrs" {|{"ts":0.000001,"name":"e","attrs":{}}|}
    (event_json { Obs.Flight.ts = 1e-6; name = "e"; attrs = [] })

let suite =
  ( "json_bytes",
    [
      Alcotest.test_case "answer complete" `Quick test_complete;
      Alcotest.test_case "answer partial" `Quick test_partial;
      Alcotest.test_case "proto bodies" `Quick test_proto;
      Alcotest.test_case "instr report" `Quick test_instr;
      Alcotest.test_case "telemetry card" `Quick test_card;
      Alcotest.test_case "flight event" `Quick test_flight;
    ] )
