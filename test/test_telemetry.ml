(* Observability stack: validated env parsing, structured logging,
   flight recorder, OpenMetrics rendering, report-card JSON (qcheck
   round-trip through the mini-parser), the chaos → post-mortem-bundle
   pipeline, and the byte-identity guarantee (telemetry and logging
   never change answers). *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module E = Counting.Engine
module G = Counting.Governor
module T = Counting.Telemetry
module J = Obs.Ojson

let v name = A.var (V.named name)
let k n = A.of_int n
let z = Zint.of_int

(* ------------------------------------------------------------------ *)
(* Envcfg                                                              *)

(* A name no production code reads, so these tests cannot perturb real
   knobs; Unix.putenv cannot unset, so "" stands in for absent (Envcfg
   treats empty as unset). *)
let evar = "OMEGA_TEST_ENVCFG"

let test_envcfg_int () =
  Unix.putenv evar "42";
  let w0 = Obs.Envcfg.warnings_emitted () in
  Alcotest.(check int) "valid int" 42 (Obs.Envcfg.int_or evar ~default:7);
  Alcotest.(check int) "no warning for valid" w0 (Obs.Envcfg.warnings_emitted ());
  Unix.putenv evar "";
  Alcotest.(check int) "empty -> default" 7 (Obs.Envcfg.int_or evar ~default:7);
  Alcotest.(check int) "no warning for empty" w0
    (Obs.Envcfg.warnings_emitted ());
  Unix.putenv evar "banana";
  Alcotest.(check int) "malformed -> default" 7
    (Obs.Envcfg.int_or evar ~default:7);
  Alcotest.(check bool) "malformed warned" true
    (Obs.Envcfg.warnings_emitted () > w0);
  let w1 = Obs.Envcfg.warnings_emitted () in
  Unix.putenv evar "0";
  Alcotest.(check int) "below min -> default" 7
    (Obs.Envcfg.int_or evar ~min:1 ~default:7);
  Alcotest.(check bool) "out-of-range warned" true
    (Obs.Envcfg.warnings_emitted () > w1);
  Unix.putenv evar "5";
  Alcotest.(check (option int)) "int_opt valid" (Some 5)
    (Obs.Envcfg.int_opt evar);
  Unix.putenv evar "";
  Alcotest.(check (option int)) "int_opt empty" None (Obs.Envcfg.int_opt evar)

let test_envcfg_other () =
  Unix.putenv evar "2.5";
  Alcotest.(check (float 1e-9)) "valid float" 2.5
    (Obs.Envcfg.float_or evar ~default:1.0);
  Unix.putenv evar "nope";
  let w0 = Obs.Envcfg.warnings_emitted () in
  Alcotest.(check (float 1e-9)) "malformed float -> default" 1.0
    (Obs.Envcfg.float_or evar ~default:1.0);
  Alcotest.(check bool) "float warned" true
    (Obs.Envcfg.warnings_emitted () > w0);
  List.iter
    (fun (s, expect) ->
      Unix.putenv evar s;
      Alcotest.(check bool)
        (Printf.sprintf "bool %S" s)
        expect
        (Obs.Envcfg.bool_or evar ~default:false))
    [ ("1", true); ("ON", true); ("Yes", true); ("0", false); ("off", false) ];
  Unix.putenv evar "maybe";
  let w1 = Obs.Envcfg.warnings_emitted () in
  Alcotest.(check bool) "bool garbage -> default" true
    (Obs.Envcfg.bool_or evar ~default:true);
  Alcotest.(check bool) "bool warned" true
    (Obs.Envcfg.warnings_emitted () > w1);
  let choices = [ ("red", 0); ("green", 1) ] in
  Unix.putenv evar "  GREEN ";
  Alcotest.(check int) "choice trimmed case-insensitive" 1
    (Obs.Envcfg.choice_or evar ~choices ~default:0);
  Unix.putenv evar "blue";
  let w2 = Obs.Envcfg.warnings_emitted () in
  Alcotest.(check int) "choice unmatched -> default" 0
    (Obs.Envcfg.choice_or evar ~choices ~default:0);
  Alcotest.(check bool) "choice warned" true
    (Obs.Envcfg.warnings_emitted () > w2);
  Unix.putenv evar "hello";
  Alcotest.(check (option string)) "string_opt" (Some "hello")
    (Obs.Envcfg.string_opt evar);
  Unix.putenv evar ""

(* A long-running server re-reads its knobs per request: the same
   malformed (variable, value) pair must warn exactly once per process,
   while a changed (still malformed) value warns again. *)
let test_envcfg_warn_once () =
  Unix.putenv evar "not-an-int-once";
  let w0 = Obs.Envcfg.warnings_emitted () in
  Alcotest.(check int) "first parse falls back" 7
    (Obs.Envcfg.int_or evar ~default:7);
  Alcotest.(check int) "first parse warns" (w0 + 1)
    (Obs.Envcfg.warnings_emitted ());
  for _ = 1 to 100 do
    ignore (Obs.Envcfg.int_or evar ~default:7)
  done;
  Alcotest.(check int) "100 re-parses of the same pair warn zero more times"
    (w0 + 1)
    (Obs.Envcfg.warnings_emitted ());
  (* the same pair through a different reader is still the same pair *)
  ignore (Obs.Envcfg.int_opt evar);
  Alcotest.(check int) "other reader, same pair: still once" (w0 + 1)
    (Obs.Envcfg.warnings_emitted ());
  Unix.putenv evar "not-an-int-twice";
  ignore (Obs.Envcfg.int_or evar ~default:7);
  Alcotest.(check int) "a changed malformed value warns again" (w0 + 2)
    (Obs.Envcfg.warnings_emitted ());
  Unix.putenv evar ""

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)

let with_log_capture f =
  let path = Filename.temp_file "omega_test_log" ".jsonl" in
  let oc = open_out path in
  Obs.Log.set_sink oc;
  let restore () =
    Obs.Log.flush ();
    Obs.Log.set_sink stderr;
    Obs.Log.set_level None;
    close_out_noerr oc;
    let lines = ref [] in
    let ic = open_in path in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in_noerr ic;
    Sys.remove path;
    List.rev !lines
  in
  (try f () with e -> ignore (restore ()); raise e);
  restore ()

let test_log_gating_and_order () =
  let lines =
    with_log_capture (fun () ->
        Obs.Log.set_level (Some Obs.Log.Info);
        Alcotest.(check bool) "info enabled" true
          (Obs.Log.enabled Obs.Log.Info ());
        Alcotest.(check bool) "debug disabled" false
          (Obs.Log.enabled Obs.Log.Debug ());
        (* a disabled call site must not force its thunks *)
        Obs.Log.debug
          ~fields:(fun () -> Alcotest.fail "fields thunk forced while disabled")
          (fun () -> Alcotest.fail "msg thunk forced while disabled");
        Obs.Log.info (fun () -> "first");
        Obs.Log.warn
          ~fields:(fun () -> [ ("k", Obs.Trace.Str "quote\"backslash\\") ])
          (fun () -> "second");
        Obs.Log.error (fun () -> "third"))
  in
  Alcotest.(check int) "three records" 3 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match J.parse line with
        | Ok j -> j
        | Error e -> Alcotest.failf "log line not JSON (%s): %s" e line)
      lines
  in
  let seqs =
    List.map
      (fun j ->
        match Option.bind (J.member "seq" j) J.to_int with
        | Some n -> n
        | None -> Alcotest.fail "log line missing seq")
      parsed
  in
  Alcotest.(check bool) "seq strictly increasing" true
    (List.sort_uniq compare seqs = seqs);
  let msgs =
    List.map
      (fun j -> Option.value ~default:"?" (Option.bind (J.member "msg" j) J.to_string))
      parsed
  in
  Alcotest.(check (list string)) "causal order" [ "first"; "second"; "third" ]
    msgs;
  let second = List.nth parsed 1 in
  Alcotest.(check (option string)) "escaped field round-trips"
    (Some "quote\"backslash\\")
    (Option.bind (J.member "fields" second) (fun f ->
         Option.bind (J.member "k" f) J.to_string));
  Alcotest.(check (option string)) "level name" (Some "warn")
    (Option.bind (J.member "level" second) J.to_string)

let test_log_level_of_string () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "level %S" s)
        true
        (Obs.Log.level_of_string s = expect))
    [
      ("off", Some None);
      ("ERROR", Some (Some Obs.Log.Error));
      ("warn", Some (Some Obs.Log.Warn));
      ("info", Some (Some Obs.Log.Info));
      ("debug", Some (Some Obs.Log.Debug));
      ("chatty", None);
    ]

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)

let test_flight_ring_bounded () =
  Obs.Flight.clear ();
  let n = Obs.Flight.capacity + 88 in
  for i = 1 to n do
    Obs.Flight.note "test.event" [ ("i", string_of_int i) ]
  done;
  let events = Obs.Flight.recent () in
  Alcotest.(check int) "ring holds capacity" Obs.Flight.capacity
    (List.length events);
  Alcotest.(check int) "dropped counts overwrites" 88 (Obs.Flight.dropped ());
  (* oldest-first and the newest survived *)
  let last = List.nth events (List.length events - 1) in
  Alcotest.(check (option string)) "newest kept" (Some (string_of_int n))
    (List.assoc_opt "i" last.Obs.Flight.attrs);
  (match J.parse (J.render (Obs.Flight.to_ojson last)) with
  | Ok j ->
      Alcotest.(check (option string)) "event name" (Some "test.event")
        (Option.bind (J.member "name" j) J.to_string)
  | Error e -> Alcotest.failf "event not JSON: %s" e);
  Obs.Flight.clear ();
  Alcotest.(check int) "clear empties" 0 (List.length (Obs.Flight.recent ()))

(* ------------------------------------------------------------------ *)
(* OpenMetrics                                                         *)

let metric_name_ok name =
  String.length name > 0
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let test_openmetrics_render () =
  (* make sure at least one counter and one histogram exist *)
  Obs.Metrics.incr ~by:3 (Obs.Metrics.counter "test.om_counter");
  Obs.Metrics.observe
    (Obs.Metrics.histogram "test.om_hist" ~buckets:[| 1; 10 |])
    5;
  let body = Obs.Openmetrics.render (Obs.Metrics.snapshot ()) in
  let lines = String.split_on_char '\n' body in
  let lines = List.filter (fun l -> l <> "") lines in
  Alcotest.(check string) "ends with EOF" "# EOF"
    (List.nth lines (List.length lines - 1));
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then begin
        (* sample line: name{labels} value | name value *)
        let name_end =
          match (String.index_opt line '{', String.index_opt line ' ') with
          | Some b, Some sp -> min b sp
          | Some b, None -> b
          | None, Some sp -> sp
          | None, None -> Alcotest.failf "malformed sample line: %s" line
        in
        let name = String.sub line 0 name_end in
        if not (metric_name_ok name) then
          Alcotest.failf "bad metric name %S in line %S" name line;
        if not (String.length name > 6 && String.sub name 0 6 = "omega_") then
          Alcotest.failf "metric %S missing omega_ prefix" name
      end)
    lines;
  let contains needle =
    let nh = String.length body and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub body i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "counter rendered with _total" true
    (contains "omega_test_om_counter_total");
  Alcotest.(check bool) "histogram +Inf bucket" true
    (contains "le=\"+Inf\"");
  Alcotest.(check bool) "histogram count" true
    (contains "omega_test_om_hist_count")

(* ------------------------------------------------------------------ *)
(* Report cards                                                        *)

let card_formula =
  F.and_
    [
      F.geq (v "i") (k 1);
      F.leq (v "j") (v "n");
      F.leq (A.scale (z 2) (v "i")) (A.scale (z 3) (v "j"));
    ]

let build_card ?(label = "test") ?(outcome = T.Complete) () =
  let (), report =
    E.with_instr ~label (fun () ->
        ignore (E.count ~vars:[ "i"; "j" ] card_formula))
  in
  T.build ~label ~opts:E.default ~vars:[ "i"; "j" ] ~summand:Qpoly.one ~outcome
    ~report card_formula

let test_card_shape () =
  let card = build_card () in
  Alcotest.(check int) "fingerprint is 16 hex chars" 16
    (String.length card.T.fingerprint);
  Alcotest.(check bool) "fingerprint hex" true
    (String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       card.T.fingerprint);
  (* deterministic: same query, same fingerprint *)
  let card2 = build_card () in
  Alcotest.(check string) "fingerprint stable" card.T.fingerprint
    card2.T.fingerprint;
  (* sensitive: a different formula fingerprints differently *)
  let other =
    T.fingerprint ~vars:[ "i"; "j" ] ~summand:Qpoly.one
      (F.and_ [ F.geq (v "i") (k 2); F.leq (v "j") (v "n") ])
  in
  Alcotest.(check bool) "fingerprint distinguishes" true
    (card.T.fingerprint <> other);
  Alcotest.(check int) "clauses_total matches" (List.length card.T.clauses)
    card.T.clauses_total;
  List.iter
    (fun ci ->
      if ci.T.backend <> "gf" && ci.T.backend <> "pugh" then
        Alcotest.failf "unexpected backend %S" ci.T.backend)
    card.T.clauses

let card_roundtrip_prop label =
  let card = build_card ~label ~outcome:(T.Partial "fuel") () in
  match J.parse (T.to_json card) with
  | Error e -> Alcotest.failf "card JSON unparseable (%s) for label %S" e label
  | Ok j ->
      Option.bind (J.member "schema" j) J.to_string = Some "omegacount.card.v1"
      && Option.bind (J.member "query" j) J.to_string = Some label
      && Option.bind (J.member "fingerprint" j) J.to_string
         = Some card.T.fingerprint
      && Option.bind (J.member "outcome" j) (fun o ->
             Option.bind (J.member "status" o) J.to_string)
         = Some "partial"
      && Option.bind (J.member "outcome" j) (fun o ->
             Option.bind (J.member "reason" o) J.to_string)
         = Some "fuel"
      && (match J.member "clauses" j with
         | Some (J.Arr cls) -> List.length cls = card.T.clauses_total
         | _ -> false)
      &&
      match J.member "report" j with
      | Some r -> J.member "wall_s" r <> None && J.member "metrics" r <> None
      | None -> false

(* Labels with quotes, backslashes, control bytes, and high bytes — the
   JSON-escaping stress. *)
let card_roundtrip_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"card JSON round-trips through Ojson" ~count:50
       QCheck.(string_of_size (Gen.int_bound 30))
       card_roundtrip_prop)

(* ------------------------------------------------------------------ *)
(* Chaos → post-mortem bundles                                         *)

let with_tmp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omega_test_pm_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let bundle_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare

let check_bundle ~trigger_prefix path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in_noerr ic;
  match J.parse body with
  | Error e -> Alcotest.failf "bundle %s not JSON: %s" path e
  | Ok j ->
      Alcotest.(check (option string)) "bundle schema"
        (Some "omegacount.postmortem.v1")
        (Option.bind (J.member "schema" j) J.to_string);
      let trigger =
        Option.value ~default:"?" (Option.bind (J.member "trigger" j) J.to_string)
      in
      let plen = String.length trigger_prefix in
      if
        String.length trigger < plen
        || String.sub trigger 0 plen <> trigger_prefix
      then
        Alcotest.failf "bundle trigger %S lacks prefix %S" trigger
          trigger_prefix;
      (match J.member "flight" j with
      | Some (J.Arr _) -> ()
      | _ -> Alcotest.fail "bundle missing flight array");
      (match J.member "metrics" j with
      | Some (J.Obj _) -> ()
      | _ -> Alcotest.fail "bundle missing metrics object");
      match J.member "card" j with
      | Some (J.Obj _) -> ()
      | _ -> Alcotest.fail "bundle missing card"

(* Each injected fault in a governed run degrades to Partial, and the
   flush after card assembly must produce exactly one well-formed
   bundle; runs the chaos spared produce none. *)
let test_chaos_postmortem_battery () =
  with_tmp_dir @@ fun dir ->
  T.set_postmortem_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      T.set_postmortem_dir None;
      Counting.Chaos.set None;
      ignore (T.flush_postmortem ()))
  @@ fun () ->
  let partials = ref 0 in
  for seed = 1 to 40 do
    Counting.Chaos.set ~rate:3 (Some seed);
    let outcome =
      Fun.protect
        ~finally:(fun () -> Counting.Chaos.set None)
        (fun () -> G.count ~vars:[ "i"; "j" ] card_formula)
    in
    let before = List.length (bundle_files dir) in
    match outcome with
    | G.Complete _ ->
        Alcotest.(check (option string))
          (Printf.sprintf "seed %d: no pending bundle on Complete" seed)
          None (T.pending_postmortem ());
        T.flush_postmortem ();
        Alcotest.(check int)
          (Printf.sprintf "seed %d: no bundle on Complete" seed)
          before
          (List.length (bundle_files dir))
    | G.Partial p ->
        incr partials;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: bundle pending on Partial" seed)
          true
          (T.pending_postmortem () <> None);
        let card =
          build_card ~label:(Printf.sprintf "chaos-seed-%d" seed)
            ~outcome:(T.Partial (G.reason_name p.G.reason))
            ()
        in
        T.flush_postmortem ~card ();
        let files = bundle_files dir in
        Alcotest.(check int)
          (Printf.sprintf "seed %d: exactly one new bundle" seed)
          (before + 1) (List.length files);
        check_bundle ~trigger_prefix:"budget."
          (Filename.concat dir (List.nth files (List.length files - 1)));
        (* the flush consumed the request: a second flush adds nothing *)
        T.flush_postmortem ();
        Alcotest.(check int)
          (Printf.sprintf "seed %d: flush is idempotent" seed)
          (before + 1)
          (List.length (bundle_files dir))
  done;
  if !partials < 5 then
    Alcotest.failf
      "chaos battery only produced %d partials out of 40 seeds — injection \
       too weak to exercise the bundle path"
      !partials

let test_postmortem_disabled_noop () =
  T.set_postmortem_dir None;
  T.request_postmortem ~trigger:"test.should_not_stick";
  Alcotest.(check (option string)) "no dir, no pending" None
    (T.pending_postmortem ())

(* ------------------------------------------------------------------ *)
(* Byte-identity: telemetry + logging never change answers             *)

let identity_formulas =
  [
    ("E6", [ "i"; "j" ], card_formula);
    ( "stride",
      [ "x" ],
      F.and_
        [
          F.between (k 0) (v "x") (v "n");
          F.exists
            [ V.named "t" ]
            (F.eq (v "x")
               (A.add_const (A.scale (z 3) (v "t")) Zint.two));
        ] );
  ]

let test_byte_identity () =
  let tele = Filename.temp_file "omega_test_tele" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      T.set_file None;
      Obs.Log.set_level None;
      Obs.Log.set_sink stderr;
      try Sys.remove tele with Sys_error _ -> ())
  @@ fun () ->
  List.iter
    (fun (label, vars, f) ->
      Omega.Memo.clear_all ();
      let plain = Counting.Value.to_string (E.count ~vars f) in
      (* everything on: telemetry sink, debug logging into a scratch
         sink, instrumentation collection, card assembly *)
      T.set_file (Some tele);
      let null = open_out Filename.null in
      Obs.Log.set_sink null;
      Obs.Log.set_level (Some Obs.Log.Debug);
      Omega.Memo.clear_all ();
      let v2, report = E.with_instr ~label (fun () -> E.count ~vars f) in
      T.record
        (T.build ~label ~opts:E.default ~vars ~summand:Qpoly.one
           ~outcome:T.Complete ~report f);
      Obs.Log.flush ();
      Obs.Log.set_sink stderr;
      Obs.Log.set_level None;
      T.set_file None;
      close_out_noerr null;
      Alcotest.(check string)
        (label ^ " identical")
        plain
        (Counting.Value.to_string v2))
    identity_formulas

(* A query that fails still leaves its card: the shared query runner
   records a [Failed] card before re-raising. *)
let test_failed_query_card () =
  let tele = Filename.temp_file "omega_test_tele" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      T.set_file None;
      try Sys.remove tele with Sys_error _ -> ())
  @@ fun () ->
  T.set_file (Some tele);
  let source = "count { i : i >= 1 }" in
  let q = Preslang.parse_query source in
  (match
     Counting.Query.run ~label:"test" ~opts:E.default ~budget:G.unlimited
       ~merge:true ~certify:false ~instr:false ~at:[] ~source
       ~vars:q.Preslang.vars ~summand:q.Preslang.summand q.Preslang.formula
   with
  | _ -> Alcotest.fail "an unbounded query was answered"
  | exception E.Unbounded _ -> ());
  T.set_file None;
  let ic = open_in tele in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in_noerr ic;
  match !lines with
  | [ line ] -> (
      match J.parse line with
      | Ok card ->
          Alcotest.(check (option string))
            "failed outcome"
            (Some {|{"status":"failed","error":"unbounded"}|})
            (Option.map J.render (J.member "outcome" card))
      | Error e -> Alcotest.failf "card does not parse: %s" e)
  | ls -> Alcotest.failf "expected exactly one card, got %d" (List.length ls)

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "envcfg int parsing" `Quick test_envcfg_int;
      Alcotest.test_case "envcfg float/bool/choice parsing" `Quick
        test_envcfg_other;
      Alcotest.test_case "envcfg warns once per (variable, value) pair" `Quick
        test_envcfg_warn_once;
      Alcotest.test_case "log gating, order, JSON" `Quick
        test_log_gating_and_order;
      Alcotest.test_case "log level spellings" `Quick test_log_level_of_string;
      Alcotest.test_case "flight ring bounded" `Quick test_flight_ring_bounded;
      Alcotest.test_case "openmetrics rendering" `Quick test_openmetrics_render;
      Alcotest.test_case "card shape and fingerprint" `Quick test_card_shape;
      card_roundtrip_qcheck;
      Alcotest.test_case "chaos postmortem battery" `Quick
        test_chaos_postmortem_battery;
      Alcotest.test_case "postmortem disabled is a no-op" `Quick
        test_postmortem_disabled_noop;
      Alcotest.test_case "byte-identity jobs=1" `Quick test_byte_identity;
      Alcotest.test_case "failed query leaves a failed card" `Quick
        test_failed_query_card;
    ] )
