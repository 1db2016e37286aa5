(* omcount: command-line interface to the counting engine.

   Examples:
     omcount "count { i, j : 1 <= i <= j <= n }"
     omcount --at n=100 "sum { i : 1 <= i <= n } i^2"
     omcount --strategy symbolic "count { i, j : 1 <= i and j <= n and 2*i <= 3*j }"
*)

let parse_binding s =
  match String.index_opt s '=' with
  | Some k ->
      let name = String.sub s 0 k in
      let value = String.sub s (k + 1) (String.length s - k - 1) in
      (name, Zint.of_string value)
  | None -> raise (Arg.Bad (Printf.sprintf "bad binding %S (want name=int)" s))

let env_of bindings name =
  match List.assoc_opt name bindings with
  | Some z -> z
  | None -> raise Not_found

let print_report = function
  | None -> ()
  | Some r ->
      Format.eprintf "%a@." Counting.Instr.pp r;
      Printf.eprintf "%s\n" (Counting.Instr.to_json r)

let print_eval_at bindings value =
  if bindings <> [] then
    Printf.printf "at %s: %s\n"
      (String.concat ", "
         (List.map
            (fun (n, z) -> Printf.sprintf "%s=%s" n (Zint.to_string z))
            bindings))
      (Qnum.to_string (Counting.Value.eval (env_of bindings) value))

(* The bodies live in [Counting.Answer] so omegad publishes the exact
   same bytes. *)
let json_complete bindings value =
  print_endline (Counting.Answer.complete_json ~at:bindings value)

let json_partial bindings (p : Counting.Governor.partial) =
  print_endline (Counting.Answer.partial_json ~at:bindings p)

(* --explain-plan: the planner's per-clause dump (predicted fan-out,
   backend routing, elimination order) before the run, and the observed
   planner/engine counters after it — predicted vs actual. Stderr, so
   stdout stays the bare answer. *)
let explain_keys =
  [
    "planner.probes";
    "planner.probe_refuted";
    "planner.probe_witness";
    "planner.probe_unknown";
    "planner.pruned_pins";
    "planner.pruned_branches";
    "planner.adaptive_clauses";
    "engine.gf_clauses";
    "engine.gf_fallback";
    "engine.splinter_fanout";
  ]

let print_explain_plan opts (q : Preslang.query) ~fingerprint cls =
  (* The fingerprint heads the dump so --explain-plan output joins the
     report cards and bench lines on the same key. *)
  Printf.eprintf "fingerprint: %s\n" fingerprint;
  Printf.eprintf "%s"
    (Counting.Planner.explain
       ~exact:(opts.Counting.Engine.strategy = Counting.Engine.Exact)
       ~const_poly:(Option.is_some (Qpoly.to_const q.Preslang.summand))
       ~vars:(List.map Presburger.Var.named q.Preslang.vars)
       cls)

let print_explain_observed before =
  let after = Obs.Metrics.snapshot () in
  let d = Obs.Metrics.diff after before in
  Printf.eprintf "observed:\n";
  List.iter
    (fun key ->
      match List.assoc_opt key d with
      | Some (Obs.Metrics.Count n) when n > 0 ->
          Printf.eprintf "  %s=%d\n" key n
      | Some (Obs.Metrics.Hist { count; sum; _ }) when count > 0 ->
          Printf.eprintf "  %s: count=%d sum=%d\n" key count sum
      | _ -> ())
    explain_keys

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc line;
      output_char oc '\n')

let run query bindings strategy backend explain_plan merge stats ~budget ~json
    ~certify =
  let q = Preslang.parse_query query in
  let opts = { Counting.Engine.default with strategy; backend } in
  let fingerprint =
    Counting.Telemetry.fingerprint ~vars:q.Preslang.vars
      ~summand:q.Preslang.summand q.Preslang.formula
  in
  Obs.Log.info
    ~fields:(fun () -> [ ("fingerprint", Obs.Trace.Str fingerprint) ])
    (fun () -> "query start");
  (* Ambient context: a post-mortem bundle written mid-query (before the
     card is assembled) still carries the join key. *)
  Counting.Telemetry.set_context
    (("query", "omcount") :: ("fingerprint", fingerprint)
    :: Counting.Engine.opts_fields opts);
  let explain_before =
    if explain_plan then begin
      (* One extra DNF pass to show the plan up front; the clauses are
         recomputed by the run itself (the solver memo absorbs most of
         the duplicate work). *)
      let cls = Counting.Engine.to_clauses ~opts q.Preslang.formula in
      print_explain_plan opts q ~fingerprint cls;
      Some (Obs.Metrics.snapshot ())
    end
    else None
  in
  let r =
    Counting.Query.run ~label:"omcount" ~opts ~budget ~merge
      ~certify:(certify <> None)
      (* A report is collected whenever anything consumes it: --stats,
         an enabled telemetry sink, or a post-mortem directory (so
         bundles can embed the card). The answer is identical either
         way. *)
      ~instr:
        (stats
        || Counting.Telemetry.enabled ()
        || Counting.Telemetry.postmortem_dir () <> None)
      ~at:bindings ~source:query ~vars:q.Preslang.vars
      ~summand:q.Preslang.summand q.Preslang.formula
  in
  (match (certify, r.certificate) with
  | Some path, Some cert -> append_line path (Obs.Ojson.render cert)
  | _ -> ());
  let finish () =
    Option.iter print_explain_observed explain_before;
    Obs.Log.info
      ~fields:(fun () ->
        [
          ("fingerprint", Obs.Trace.Str fingerprint);
          ( "status",
            Obs.Trace.Str
              (match r.outcome with
              | Counting.Governor.Complete _ -> "complete"
              | Counting.Governor.Partial _ -> "partial") );
        ])
      (fun () -> "query done");
    print_report (if stats then r.report else None)
  in
  match r.outcome with
  | Counting.Governor.Complete value ->
      if json then json_complete bindings value
      else begin
        Printf.printf "%s\n" (Counting.Value.to_string value);
        print_eval_at bindings value
      end;
      finish ()
  | Counting.Governor.Partial p ->
      if json then json_partial bindings p
      else begin
        Printf.printf "%s\n" (Counting.Value.to_string p.pieces);
        Printf.eprintf
          "omcount: partial result (budget exhausted: %s): %d of %d \
           clauses done; lower bound %s; upper bound %s\n"
          (Counting.Governor.reason_name p.reason)
          p.clauses_done p.clauses_total
          (Counting.Value.to_string p.lower)
          (match p.upper with
          | Some u -> Counting.Value.to_string u
          | None -> "unknown")
      end;
      finish ();
      exit 3

(* --simplify: print the disjoint DNF of a bare formula — the Omega
   test's Section 2.6 capability, exposed directly. *)
let simplify_formula s stats =
  let f = Preslang.parse_formula s in
  let compute () = Omega.Disjoint.of_formula f in
  let cls, report =
    if stats then begin
      let cls, report =
        Counting.Engine.with_instr ~label:"omcount"
          ~meta:[ ("mode", "simplify") ]
          compute
      in
      (cls, Some report)
    end
    else (compute (), None)
  in
  (match cls with
  | [] -> print_endline "FALSE"
  | _ ->
      List.iteri
        (fun i c ->
          Printf.printf "%s%s\n"
            (if i = 0 then "   " else "OR ")
            (Omega.Clause.to_string c))
        cls);
  Printf.printf "(%d disjoint clause%s)\n" (List.length cls)
    (if List.length cls = 1 then "" else "s");
  match report with
  | None -> ()
  | Some r ->
      Format.eprintf "%a@." Counting.Instr.pp r;
      Printf.eprintf "%s\n" (Counting.Instr.to_json r)

(* Caret diagnostic for a parse/typing error at byte offset [pos] of the
   query string. Printed to stderr; the caller exits with code 2 (usage /
   input error), distinct from exit 1 (a well-formed query the engine
   cannot answer). *)
let report_parse_error src pos msg =
  let n = String.length src in
  let pos = max 0 (min pos n) in
  let line_start =
    if pos = 0 then 0
    else
      match String.rindex_from_opt src (pos - 1) '\n' with
      | Some i -> i + 1
      | None -> 0
  in
  let line_end =
    match String.index_from_opt src pos '\n' with Some i -> i | None -> n
  in
  let line_no =
    1 + String.fold_left (fun k c -> if c = '\n' then k + 1 else k) 0
          (String.sub src 0 line_start)
  in
  let col = pos - line_start in
  Printf.eprintf "omcount: parse error at line %d, column %d: %s\n" line_no
    (col + 1) msg;
  Printf.eprintf "  %s\n" (String.sub src line_start (line_end - line_start));
  Printf.eprintf "  %s^\n" (String.make col ' ')

let () =
  let bindings = ref [] in
  let strategy = ref Counting.Engine.Exact in
  let backend = ref Counting.Engine.Auto in
  let explain_plan = ref false in
  let merge = ref true in
  let simplify = ref false in
  let stats = ref false in
  let trace_file = ref None in
  let metrics_file = ref None in
  let certify_file = ref None in
  let profile = ref false in
  let json = ref false in
  let deadline_ms = ref None in
  let fuel = ref None in
  let max_fanout = ref None in
  let max_clauses = ref None in
  let query = ref None in
  let spec =
    [
      ( "--at",
        Arg.String (fun s -> bindings := parse_binding s :: !bindings),
        "name=int  evaluate the symbolic answer at this binding (repeatable)" );
      ( "--simplify",
        Arg.Set simplify,
        "  treat the argument as a bare formula; print its disjoint DNF" );
      ( "--strategy",
        Arg.Symbol
          ([ "exact"; "upper"; "lower"; "symbolic" ],
           fun s ->
             strategy :=
               (match s with
               | "upper" -> Counting.Engine.Upper
               | "lower" -> Counting.Engine.Lower
               | "symbolic" -> Counting.Engine.Symbolic
               | _ -> Counting.Engine.Exact)),
        "  rational-bound strategy (default exact)" );
      ( "--backend",
        Arg.Symbol
          ([ "pugh"; "gf"; "auto" ],
           fun s ->
             backend :=
               (match s with
               | "pugh" -> Counting.Engine.Pugh
               | "gf" -> Counting.Engine.Gf
               | _ -> Counting.Engine.Auto)),
        "  per-clause counting backend: the planner's per-clause routing \
         (auto, default), or force the splintering engine (pugh) or the \
         generating-function backend (gf) everywhere; answers are \
         byte-identical" );
      ( "--explain-plan",
        Arg.Set explain_plan,
        "  print the planner's per-clause decisions (predicted fan-out, \
         backend, elimination order) before the run and the observed \
         planner counters after it, to stderr" );
      ("--no-merge", Arg.Clear merge, "  do not merge residue classes");
      ( "--jobs",
        Arg.Int Counting.Pool.set_jobs,
        "N  use N domains for clause/splinter fan-out (default \
         $OMEGA_JOBS or the machine's core count; output is identical \
         for every N)" );
      ( "--stats",
        Arg.Set stats,
        "  print phase timings, memo counters, and Gc allocation words \
         (plus a JSON line) to stderr" );
      ( "--no-memo",
        Arg.Unit (fun () -> Omega.Memo.set_enabled false),
        "  disable solver memoization" );
      ( "--trace",
        Arg.String (fun f -> trace_file := Some f),
        "FILE  record a hierarchical trace and write it to FILE as Chrome \
         trace-event JSON (open in Perfetto or chrome://tracing)" );
      ( "--certify",
        Arg.String (fun f -> certify_file := Some f),
        "FILE  append one certificate JSON line per query to FILE \
         (per-piece guards and summands, refutation witnesses, \
         generating-function counts); replay it with omcheck; answers \
         are byte-identical with or without this flag" );
      ( "--telemetry",
        Arg.String (fun f -> Counting.Telemetry.set_file (Some f)),
        "FILE  append one JSON report card per query to FILE \
         (fingerprint, per-clause plan/backend, hit rates, budget \
         spend, outcome; also $OMEGA_TELEMETRY); answers are unchanged" );
      ( "--metrics-out",
        Arg.String (fun f -> metrics_file := Some f),
        "FILE  write the metrics registry to FILE at exit in \
         OpenMetrics/Prometheus text format" );
      ( "--log-level",
        Arg.Symbol
          ([ "off"; "error"; "warn"; "info"; "debug" ],
           fun s ->
             match Obs.Log.level_of_string s with
             | Some l -> Obs.Log.set_level l
             | None -> ()),
        "  structured-log level (JSON lines on stderr; default \
         $OMEGA_LOG or off)" );
      ( "--profile",
        Arg.Set profile,
        "  record a trace and print a self-time-sorted span tree to stderr" );
      ( "--json",
        Arg.Set json,
        "  print the answer as one JSON object with a \"status\" field \
         (\"complete\" or \"partial\")" );
      ( "--deadline-ms",
        Arg.Int (fun n -> deadline_ms := Some n),
        "N  give up after N milliseconds of wall clock; a partial answer \
         with sound bounds exits with code 3" );
      ( "--fuel",
        Arg.Int (fun n -> fuel := Some n),
        "N  budget of N solver steps (eliminations, reductions, \
         feasibility probes)" );
      ( "--max-fanout",
        Arg.Int (fun n -> max_fanout := Some n),
        "N  refuse any single splinter with more than N branches" );
      ( "--max-clauses",
        Arg.Int (fun n -> max_clauses := Some n),
        "N  refuse DNF expansions beyond N live clauses" );
    ]
  in
  let usage = "omcount [options] \"count { vars : formula }\" | \"sum { vars : formula } expr\"" in
  Arg.parse spec (fun s -> query := Some s) usage;
  (match !metrics_file with
  | None -> ()
  | Some f ->
      (* At exit, like --trace, so failed runs still leave a dump. *)
      at_exit (fun () ->
          let oc = open_out f in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> Obs.Openmetrics.write oc (Obs.Metrics.snapshot ()))));
  if !trace_file <> None || !profile then begin
    Obs.Trace.set_enabled true;
    (* Dump at exit so post-mortem traces of failed runs (parse errors
       aside — nothing is recorded yet — but Unbounded, non-termination
       guards, …) still reach the file. *)
    at_exit (fun () ->
        (match !trace_file with
        | None -> ()
        | Some f ->
            let oc = open_out f in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> Obs.Trace.write_chrome oc));
        if !profile then Obs.Trace.pp_profile Format.err_formatter ())
  end;
  match !query with
  | None ->
      prerr_endline usage;
      exit 2
  | Some q -> (
      let budget =
        {
          Counting.Governor.deadline_ms = !deadline_ms;
          fuel = !fuel;
          max_fanout = !max_fanout;
          max_clauses = !max_clauses;
        }
      in
      try
        if !simplify then simplify_formula q !stats
        else
          run q !bindings !strategy !backend !explain_plan !merge !stats
            ~budget ~json:!json ~certify:!certify_file
      with
      | Preslang.Parse_error (pos, msg) ->
          report_parse_error q pos msg;
          exit 2
      | Counting.Engine.Unbounded msg ->
          Printf.eprintf "unbounded summation: %s\n" msg;
          exit 1
      (* the query runner has already logged, carded and bundled these *)
      | Omega.Error.Omega_error { phase; what; context } ->
          Printf.eprintf "omcount: %s\n"
            (Omega.Error.to_string ~phase ~what context);
          exit 1
      | Failure msg ->
          Printf.eprintf "omcount: %s\n" msg;
          exit 1)
