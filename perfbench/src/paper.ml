(* paper-batch: in-process library calls, the compiler's traffic.

   Each query runs the engine's public pipeline at the default options
   with [Pool] jobs 1 and the memo cleared first:
   parse ([Preslang.parse_query]) → DNF ([Engine.to_clauses]) → sum
   ([Engine.sum_clauses]) → merge ([Merge.merge_residues], where the
   row merges) → render ([Answer.complete_json]). [Engine.sum] is
   exactly [to_clauses] followed by [sum_clauses], so timing the two
   calls separately changes nothing. Every execution's answer is
   checked; a mismatch or an exception counts as a failure. *)

module E = Counting.Engine
module C = Corpus

type prepared = {
  q : C.query;
  at : (string * Zint.t) list;  (** bindings the answer is rendered at *)
  truth : (string * Zint.t) list * Qnum.t option;
      (** brute-force truth for [Brute] rows, [None] otherwise *)
  mutable times : float list;  (** whole-query seconds, untraced rounds *)
  mutable ttimes : float list;  (** whole-query seconds, traced rounds *)
  mutable runs : int;
  mutable failures : int;
  mutable counts : (string * float) list;
      (** per-query counters from the first traced execution *)
}

let zenv l = List.map (fun (k, v) -> (k, Zint.of_int v)) l

let env_fn env name =
  match List.assoc_opt name env with Some z -> z | None -> raise Not_found

let parse_vars_formula (q : C.query) =
  match q.input with
  | C.Text s ->
      let p = Preslang.parse_query s in
      Some (p.Preslang.vars, p.Preslang.formula, p.Preslang.summand)
  | C.Built (vars, f) -> Some (vars, f (), Qpoly.one)
  | C.Simplify _ | C.Opaque _ -> None

(* Set-up for one query: parse it and compute the brute-force truth its
   checks compare against. *)
let prepare (q : C.query) =
  let at =
    List.find_map
      (function C.Eval (b, _) | C.Brute (b, _, _) -> Some (zenv b) | _ -> None)
      q.expect
    |> Option.value ~default:[]
  in
  let truth =
    List.find_map
      (function
        | C.Brute (b, lo, hi) ->
            let vars, f, summand = Option.get (parse_vars_formula q) in
            let env = zenv b in
            Some (env, Some (E.brute_sum ~vars ~lo ~hi (env_fn env) f summand))
        | _ -> None)
      q.expect
    |> Option.value ~default:([], None)
  in
  { q; at; truth; times = []; ttimes = []; runs = 0; failures = 0; counts = [] }

(* Generated queries are the light end of the differential shapes: a
   draw is kept when a governed run finishes within [light_fuel] solver
   steps, from a cleared memo. Fuel counts steps, not time, so the same
   seed keeps the same queries on any machine. About one draw in twenty
   is dropped, and with it the seconds-long outliers that would make one
   seed's corpus far heavier than another's (heavy work is the paper
   rows' job). *)
let light_fuel = 2000

let is_light (q : C.query) =
  match parse_vars_formula q with
  | None -> true
  | Some (vars, f, summand) -> (
      Omega.Memo.clear_all ();
      match
        Counting.Governor.sum
          ~budget:{ Counting.Governor.unlimited with fuel = Some light_fuel }
          ~vars f summand
      with
      | Counting.Governor.Complete _ -> true
      | Counting.Governor.Partial _ -> false)

let setup ~seed ~generated =
  (* serial, so the fuel a draw uses does not depend on how domains
     interleave *)
  let jobs = Counting.Pool.jobs () in
  Counting.Pool.set_jobs 1;
  Fun.protect ~finally:(fun () -> Counting.Pool.set_jobs jobs) @@ fun () ->
  let draw = C.generator ~seed in
  let rec light acc n =
    if n = 0 then List.rev acc
    else
      let q = draw () in
      if is_light q then light (q :: acc) (n - 1) else light acc n
  in
  List.map prepare (C.paper_rows @ light [] generated)

type outcome = Value of Counting.Value.t | Clauses of int

let check p outcome =
  List.for_all
    (fun e ->
      match (e, outcome) with
      | C.Sym s, Value v -> Counting.Value.to_string v = s
      | C.Eval (b, s), Value v ->
          Zint.to_string (Counting.Value.eval_zint (env_fn (zenv b)) v) = s
      | C.Pieces n, Value v -> List.length v = n
      | C.Clauses n, Clauses c -> c = n
      | C.Brute _, Value v -> (
          match p.truth with
          | env, Some t -> Qnum.equal (Counting.Value.eval (env_fn env) v) t
          | _, None -> false)
      | _ -> false)
    p.q.expect

(* Counters worth keeping per query: engine stats, memo and
   planner/pre-filter deltas, clause and byte counts. *)
let memo_counts (d : Omega.Memo.counters) =
  [
    ("feas_queries", float_of_int d.feas_queries);
    ("feas_hits", float_of_int d.feas_hits);
    ("eliminations", float_of_int d.eliminations);
  ]

let metric_counts before after =
  let d = Obs.Metrics.diff after before in
  List.filter_map
    (fun key ->
      match List.assoc_opt key d with
      | Some (Obs.Metrics.Count n) -> Some (key, float_of_int n)
      | _ -> None)
    [ "planner.probes"; "planner.probe_refuted"; "planner.pruned_pins" ]

let span = Spans.span

(* Run one query once; returns the outcome and the whole-query time. *)
let exec p =
  Omega.Memo.clear_all ();
  (* Untimed, so no heavy query inherits another's garbage. *)
  if p.q.heavy then Gc.full_major ();
  let stats = E.new_stats () in
  let traced = Spans.enabled () in
  let memo0 = if traced then Some (Omega.Memo.snapshot ()) else None in
  let met0 = if traced then Some (Obs.Metrics.snapshot ()) else None in
  let clauses = ref 0 and bytes = ref 0 in
  let counted vars f summand =
    let cls = span "omega.dnf" (fun () -> E.to_clauses f) in
    clauses := List.length cls;
    let v = span "counting.sum" (fun () -> E.sum_clauses ~stats ~vars cls summand) in
    let v =
      if p.q.merge then span "counting.merge" (fun () -> Counting.Merge.merge_residues v)
      else v
    in
    let body = span "answer.render" (fun () -> Counting.Answer.complete_json ~at:p.at v) in
    bytes := String.length body;
    Value v
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    span "query" (fun () ->
        match p.q.input with
        | C.Text s ->
            let pq = span "preslang.parse" (fun () -> Preslang.parse_query s) in
            counted pq.Preslang.vars pq.Preslang.formula pq.Preslang.summand
        | C.Built (vars, f) -> counted vars (f ()) Qpoly.one
        | C.Simplify s ->
            let f = span "preslang.parse" (fun () -> Preslang.parse_formula s) in
            let cls = span "omega.dnf" (fun () -> Omega.Dnf.of_formula f) in
            clauses := List.length cls;
            Clauses !clauses
        | C.Opaque f -> Value (f ()))
  in
  let dt = Unix.gettimeofday () -. t0 in
  (match (memo0, met0) with
  | Some m0, Some x0 when p.counts = [] ->
      p.counts <-
        [
          ("dnf_clauses", float_of_int !clauses);
          ("splinters", float_of_int stats.E.residue_splinters);
          ("pieces", float_of_int stats.E.pieces);
          ("bytes", float_of_int !bytes);
        ]
        @ memo_counts (Omega.Memo.diff (Omega.Memo.snapshot ()) m0)
        @ metric_counts x0 (Obs.Metrics.snapshot ())
  | _ -> ());
  (outcome, dt)

(* Request ids of traced executions, to their query. *)
let owner : (int, prepared) Hashtbl.t = Hashtbl.create 4096

let run_once p =
  p.runs <- p.runs + 1;
  let traced = Spans.enabled () in
  if traced then begin
    let id = Hashtbl.length owner + 1 in
    Hashtbl.replace owner id p;
    Spans.set_request id
  end;
  match exec p with
  | outcome, dt ->
      if not (check p outcome) then p.failures <- p.failures + 1;
      if traced then p.ttimes <- dt :: p.ttimes else p.times <- dt :: p.times
  | exception _ -> p.failures <- p.failures + 1

(* One pass over the corpus in seeded order: heavy queries once, light
   ones [light_reps] times. *)
let round st ~light_reps corpus =
  let order = Array.of_list corpus in
  C.shuffle st order;
  Array.iter
    (fun p ->
      for _ = 1 to (if p.q.heavy then 1 else light_reps) do
        run_once p
      done)
    order

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)

let generated_count = 160

let light_reps = 2

let setup_reps = 5

(* Set-up, done [setup_reps] times (the median is reported): corpus
   generation (with the light filter's governed runs), parsing and
   brute-force truths, then one pass of the paper's light rows so code
   and lazy tables are warm. *)
let timed_setup ~seed =
  let runs =
    List.init setup_reps (fun _ ->
        Stats.time (fun () ->
            let corpus = setup ~seed ~generated:generated_count in
            List.iter
              (fun p -> if (not p.q.heavy) && p.q.C.row <> "generated" then ignore (exec p))
              corpus;
            corpus))
  in
  (fst (List.hd (List.rev runs)), Stats.median (List.map snd runs))

let median_ms times = 1000. *. Stats.median times

(* Per-layer figures from the traced rounds' spans: for each query the
   median self time of each layer span, then the mean over the corpus,
   so the layers add up to the mean per-query time that
   [throughput_qps] inverts. *)
let layer_metrics corpus spans =
  let n = float_of_int (List.length corpus) in
  let per = Hashtbl.create 256 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt owner s.Spans.req with
      | Some p ->
          let k = (p.q.C.name, s.Spans.name) in
          let ts, mi, ma =
            Option.value ~default:([], [], []) (Hashtbl.find_opt per k)
          in
          Hashtbl.replace per k
            (self :: ts, s.Spans.minor_words :: mi, s.Spans.major_words :: ma)
      | None -> ())
    (Spans.self_times spans);
  let layer_mean f span_name =
    List.fold_left
      (fun acc p ->
        match Hashtbl.find_opt per (p.q.C.name, span_name) with
        | Some x -> acc +. f x
        | None -> acc)
      0. corpus
    /. n
  in
  let ms span_name = layer_mean (fun (ts, _, _) -> median_ms ts) span_name in
  let words pick span_name = layer_mean (fun x -> Stats.median (pick x)) span_name in
  let spans_of =
    [
      ("parse", "preslang.parse");
      ("dnf", "omega.dnf");
      ("sum", "counting.sum");
      ("merge", "counting.merge");
      ("render", "answer.render");
    ]
  in
  [
    ("preslang.parse_ms", ms "preslang.parse");
    ("omega.dnf_ms", ms "omega.dnf");
    ("counting.sum_ms", ms "counting.sum");
    ("counting.merge_ms", ms "counting.merge");
    ("answer.render_ms", ms "answer.render");
  ]
  @ List.concat_map
      (fun (l, sp) ->
        [
          (Printf.sprintf "alloc.%s.minor_words" l, words (fun (_, m, _) -> m) sp);
          (Printf.sprintf "alloc.%s.major_words" l, words (fun (_, _, m) -> m) sp);
        ])
      spans_of

let count_sum corpus key =
  List.fold_left
    (fun acc p -> acc +. Option.value ~default:0. (List.assoc_opt key p.counts))
    0. corpus

let ratio a b = if b = 0. then 0. else a /. b

(* The measured window over a prepared corpus. *)
let measure ~seed ~seconds ~traced ~setup_s corpus =
  Spans.clear ();
  let st = Random.State.make [| 0xba7c; seed |] in
  let host = ref [] in
  let deadline = Unix.gettimeofday () +. seconds in
  let rounds = ref 0 and last = ref 0. and rss = ref nan in
  (* Rounds spread every query's samples across the whole window; one
     that would not finish by the deadline is not started. A traced run
     alternates traced and untraced rounds, so the two throughputs it
     compares come from the same stretch of time. *)
  while !rounds < 2 || Unix.gettimeofday () +. !last < deadline do
    let t0 = Unix.gettimeofday () in
    Spans.set_enabled (traced && !rounds mod 2 = 0);
    host := Stats.host_ref_ms () :: !host;
    round st ~light_reps corpus;
    last := Unix.gettimeofday () -. t0;
    (* Peak memory is taken after the first pass: later passes repeat
       the same batch, and the heap kept growing with each repeat (VmHWM
       rose from 234 to 313 MB by the fifth pass), which a batch run
       once would not see. *)
    if !rounds = 0 then rss := Stats.peak_rss_mb ();
    incr rounds
  done;
  Spans.set_enabled false;
  let medians = List.map (fun p -> median_ms p.times) corpus in
  let total_ms = Stats.sum medians in
  let n = float_of_int (List.length corpus) in
  let sorted = Array.of_list medians in
  Array.sort compare sorted;
  let attempted = List.fold_left (fun a p -> a + p.runs) 0 corpus in
  let failed = List.fold_left (fun a p -> a + p.failures) 0 corpus in
  let qps = n /. (total_ms /. 1000.) in
  let e2e =
    [
      ("throughput_qps", qps);
      ("query_ms_geomean", Stats.geomean medians);
      ("latency_p50_ms", Stats.percentile_sorted sorted 50.);
      ("latency_p99_ms", Stats.percentile_sorted sorted 99.);
      ("peak_rss_mb", !rss);
      ("setup_s", setup_s);
    ]
  in
  let layers =
    if not traced then []
    else begin
      let spans = Spans.all () in
      let row r =
        List.fold_left
          (fun acc p -> if p.q.C.row = r then acc +. median_ms p.times else acc)
          0. corpus
      in
      let gen =
        List.filter_map
          (fun p -> if p.q.C.row = "generated" then Some (median_ms p.times) else None)
          corpus
      in
      let traced_ms = Stats.sum (List.map (fun p -> median_ms p.ttimes) corpus) in
      let c = count_sum corpus in
      [
        ("error_rate", ratio (float_of_int failed) (float_of_int attempted));
        ("omega.dnf_clauses", c "dnf_clauses");
        ("omega.feas_hit_ratio", ratio (c "feas_hits") (c "feas_queries"));
        ("omega.eliminations", c "eliminations");
        ( "omega.probe_refuted_ratio",
          ratio (c "planner.probe_refuted") (c "planner.probes") );
        ("omega.pruned_pins", c "planner.pruned_pins");
        ("counting.splinters", c "splinters");
        ("counting.pieces", c "pieces");
        ("answer.bytes", c "bytes");
        ("query.generated_geomean_ms", Stats.geomean gen);
        ("latency_p99_beyond", float_of_int (Stats.beyond_sorted sorted 99.));
        ("host.ref_ms", Stats.median !host);
        ("trace.overhead_pct", 100. *. ((traced_ms /. total_ms) -. 1.));
      ]
      @ layer_metrics corpus spans
      @ List.map (fun r -> (Printf.sprintf "query.%s_ms" r, row r)) C.paper_row_names
    end
  in
  ( { Report.attempted; failed; metrics = [] },
    e2e @ layers,
    Spans.all () )

let run ~seed ~seconds ~traced =
  Counting.Pool.set_jobs 1;
  let corpus, setup_s = timed_setup ~seed in
  measure ~seed ~seconds ~traced ~setup_s corpus

(* The library layers' attribution for a traced run of another
   workload: two rounds over this corpus in process (one traced, one
   not) give parse → DNF → sum → merge → render times, memo and planner
   counters, allocation and the per-row times. *)
let layer_prefixes = [ "preslang."; "omega."; "counting."; "answer."; "alloc."; "query." ]

let ladder ~seed =
  let jobs = Counting.Pool.jobs () in
  Counting.Pool.set_jobs 1;
  Fun.protect ~finally:(fun () -> Counting.Pool.set_jobs jobs) @@ fun () ->
  let r, values, spans =
    measure ~seed ~seconds:0. ~traced:true ~setup_s:0.
      (setup ~seed ~generated:generated_count)
  in
  let library (name, _) =
    List.exists (fun p -> String.starts_with ~prefix:p name) layer_prefixes
  in
  (r, List.filter library values, spans)
