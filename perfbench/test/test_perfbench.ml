(* The harness's own tests: seeded inputs are deterministic, a wrong
   answer is counted, every metric is printed with its unit, and the
   p99 sample count is reported. *)

open Perfbench
module J = Obs.Ojson

let omegad = ref "../../bin/omegad.exe"

let benchmark = ref "../../BENCHMARK.json"

let query_texts seed =
  List.map
    (fun p -> match p.Paper.q.Corpus.input with Corpus.Text s -> s | _ -> "")
    (Paper.setup ~seed ~generated:24)

let mixed_lines seed conn =
  let g = Corpus.mixed_stream ~seed ~conns:2 ~conn in
  List.init 64 (fun _ -> g ())

let hot_lines seed conn =
  let set = Corpus.hot_set ~seed ~distinct:32 in
  let g = Corpus.hot_stream ~seed ~conns:2 ~conn set in
  List.init 64 (fun _ -> (snd (g ())).Corpus.line)

let test_seed_determinism () =
  let lines l = List.map (fun r -> r.Corpus.line) l in
  Alcotest.(check (list string)) "generated queries" (query_texts 7) (query_texts 7);
  Alcotest.(check bool) "another seed, other queries" true (query_texts 7 <> query_texts 8);
  Alcotest.(check (list string)) "mixed stream" (lines (mixed_lines 7 0)) (lines (mixed_lines 7 0));
  Alcotest.(check bool) "another seed, other stream" true
    (lines (mixed_lines 7 0) <> lines (mixed_lines 8 0));
  Alcotest.(check (list string)) "hot stream" (hot_lines 7 1) (hot_lines 7 1);
  let both = mixed_lines 7 0 @ mixed_lines 7 1 in
  let keys = List.map (fun r -> (r.Corpus.cls.Corpus.cname, r.Corpus.n)) both in
  Alcotest.(check int) "bindings never repeat" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  let count p = List.length (List.filter p (mixed_lines 7 0)) in
  Alcotest.(check int) "one request in eight is the splinter query" 8
    (count (fun r -> Corpus.is_splinter r.Corpus.cls));
  Alcotest.(check int) "one in four certifies" 16 (count (fun r -> r.Corpus.certify))

let has_all catalogue (r : Report.result) =
  let line = Report.line r in
  match J.parse line with
  | Error e -> Alcotest.failf "result line does not parse: %s" e
  | Ok o ->
      let metrics = J.member_exn "metrics" o in
      Alcotest.(check (list string)) "metric names, in order"
        (List.map fst catalogue) (J.obj_keys metrics);
      List.iter
        (fun (name, unit_) ->
          let m = J.member_exn name metrics in
          Alcotest.(check (option string)) (name ^ " unit") (Some unit_)
            (Option.bind (J.member "unit" m) J.to_string);
          Alcotest.(check bool) (name ^ " is a number") true
            (Option.is_some (Option.bind (J.member "value" m) J.to_float)))
        catalogue;
      o

let paper_run ~traced corpus =
  let r, values, _ = Paper.measure ~seed:1 ~seconds:0.05 ~traced ~setup_s:0.1 corpus in
  let catalogue = if traced then Report.per_layer_metrics else Report.end_to_end in
  ({ r with Report.metrics = Report.select catalogue values }, values)

let e0 name expect =
  Paper.prepare
    (Corpus.q "E0" name (Corpus.Text "count { i : 1 <= i <= 10 }") [ expect ])

let test_planted_wrong_answer () =
  let good = e0 "good" (Corpus.Sym "(10)") and bad = e0 "planted" (Corpus.Sym "(11)") in
  let r, values = paper_run ~traced:true [ good; bad ] in
  Alcotest.(check int) "every run of the planted row failed" bad.Paper.runs r.Report.failed;
  Alcotest.(check int) "the good row never failed" 0 good.Paper.failures;
  Alcotest.(check bool) "error_rate counts it" true
    (List.assoc "error_rate" values > 0.4);
  let o = has_all Report.per_layer_metrics r in
  Alcotest.(check (option bool)) "correct is false" (Some false)
    (match J.member "correct" o with Some (J.Bool b) -> Some b | _ -> None)

let test_serve_mismatch_counted () =
  let cls = List.hd Corpus.serve_classes in
  let rf = Serve_load.reference cls in
  let sample ~certify tamper =
    let req = Corpus.make_request ~id:3 cls ~n:77 ~certify in
    let body = Serve_load.with_id 3 (Serve_load.expected_body rf req) in
    { Serve_load.req; lat = 0.001; ok = true; resp = tamper body }
  in
  let audit = Serve_load.new_audit () in
  let ok s = (Serve_load.verify audit (fun _ -> rf) s).Serve_load.ok in
  let bump s =
    (* change one digit of the evaluated count *)
    let i = String.rindex s ':' + 1 in
    String.mapi (fun j c -> if j = i then (if c = '9' then '8' else Char.chr (Char.code c + 1)) else c) s
  in
  Alcotest.(check bool) "the in-process body passes" true (ok (sample ~certify:false Fun.id));
  Alcotest.(check bool) "a changed answer fails" false (ok (sample ~certify:false bump));
  Alcotest.(check bool) "a certified body passes" true (ok (sample ~certify:true Fun.id));
  Alcotest.(check int) "its certificate was checked" 1 (List.length audit.Serve_load.check_ms)

let test_catalogue_matches_benchmark () =
  let json =
    match J.parse (In_channel.with_open_bin !benchmark In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let names key =
    List.map
      (fun m ->
        ( Option.get (J.to_string (J.member_exn "name" m)),
          Option.get (J.to_string (J.member_exn "unit" m)) ))
      (Option.get (J.to_list (J.member_exn key json)))
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Report.end_to_end (names "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Report.per_layer_metrics
    (names "per_layer");
  let workloads =
    List.map
      (fun w -> Option.get (J.to_string (J.member_exn "name" w)))
      (Option.get (J.to_list (J.member_exn "workloads" json)))
  in
  Alcotest.(check (list string)) "workloads" Workloads.names workloads

let test_untraced_prints_every_metric () =
  let r, _ = paper_run ~traced:false [ e0 "good" (Corpus.Sym "(10)") ] in
  ignore (has_all Report.end_to_end r);
  Alcotest.(check int) "no failures" 0 r.Report.failed

let test_p99_count () =
  let a = Array.init 1000 float_of_int in
  Alcotest.(check (float 0.)) "p50" 499. (Stats.percentile_sorted a 50.);
  Alcotest.(check (float 0.)) "p99" 989. (Stats.percentile_sorted a 99.);
  Alcotest.(check int) "ten samples beyond p99 of 1000" 10 (Stats.beyond_sorted a 99.);
  Alcotest.(check bool) "the count is a per-layer metric" true
    (List.mem_assoc "latency_p99_beyond" Report.per_layer_metrics)

let test_serve_hot_runs () =
  let dir = "perfbench-test-out" in
  let omegad = Filename.concat (Sys.getcwd ()) !omegad in
  let r =
    Workloads.run ~workload:"serve-hot" ~seed:3 ~seconds:0.3 ~traced:true ~omegad ~out:dir
  in
  Alcotest.(check int) "no failures" 0 r.Report.failed;
  Alcotest.(check bool) "requests were made" true (r.Report.attempted > 0);
  ignore (has_all Report.per_layer_metrics r);
  let metric n = (List.find (fun m -> m.Report.name = n) r.Report.metrics).Report.value in
  Alcotest.(check bool) "every answer came from the cache" true
    (metric "serve.cache_hit_ratio" = 1.)

let () =
  let argv =
    let rec strip = function
      | "--omegad" :: p :: rest -> omegad := p; strip rest
      | "--benchmark" :: p :: rest -> benchmark := p; strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    Array.of_list (strip (Array.to_list Sys.argv))
  in
  Alcotest.run ~argv "perfbench"
    [
      ( "harness",
        [
          Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
          Alcotest.test_case "planted wrong answer counted" `Quick test_planted_wrong_answer;
          Alcotest.test_case "serve body mismatch counted" `Quick test_serve_mismatch_counted;
          Alcotest.test_case "catalogue matches BENCHMARK.json" `Quick
            test_catalogue_matches_benchmark;
          Alcotest.test_case "untraced run prints every metric" `Quick
            test_untraced_prints_every_metric;
          Alcotest.test_case "p99 sample count" `Quick test_p99_count;
          Alcotest.test_case "serve-hot end to end" `Quick test_serve_hot_runs;
        ] );
    ]
