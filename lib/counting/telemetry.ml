(* Per-query report cards and post-mortem bundles — see telemetry.mli. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module J = Obs.Ojson

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)

(* Splitmix-style avalanche over 62-bit ints (same mixer family as
   Chaos); [A.hash] is cached per affine term, so fingerprinting large
   formulas is one traversal of the syntax tree. *)
let mix a b =
  let h = ref (a lxor (b * 0x9E3779B97F4A7C1)) in
  h := !h lxor (!h lsr 30);
  h := !h * 0xBF58476D1CE4E5B;
  h := !h lxor (!h lsr 27);
  h := !h * 0x94D049BB133111E;
  h := !h lxor (!h lsr 31);
  !h land max_int

let atom_hash = function
  | F.Geq a -> mix 3 (A.hash a)
  | F.Eq a -> mix 5 (A.hash a)
  | F.Stride (m, a) -> mix 7 (mix (Zint.hash m) (A.hash a))

let rec formula_hash f =
  match f with
  | F.True -> 1
  | F.False -> 2
  | F.Atom a -> mix 11 (atom_hash a)
  | F.And fs -> List.fold_left (fun h g -> mix h (formula_hash g)) 13 fs
  | F.Or fs -> List.fold_left (fun h g -> mix h (formula_hash g)) 17 fs
  | F.Not g -> mix 19 (formula_hash g)
  | F.Exists (vs, g) ->
      mix (List.fold_left (fun h v -> mix h (V.hash v)) 23 vs) (formula_hash g)
  | F.Forall (vs, g) ->
      mix (List.fold_left (fun h v -> mix h (V.hash v)) 29 vs) (formula_hash g)

let fingerprint ~vars ~summand f =
  let h = List.fold_left (fun h v -> mix h (Hashtbl.hash v)) 31 vars in
  (* Qpoly is abstract but immutable; a deep polymorphic hash over its
     representation is deterministic within a build, and summands are
     tiny next to formulas. *)
  let h = mix h (Hashtbl.hash_param 256 512 summand) in
  Printf.sprintf "%016x" (mix h (formula_hash f))

(* ------------------------------------------------------------------ *)
(* Cards                                                               *)

type outcome = Complete | Partial of string | Failed of string

let outcome_status = function
  | Complete -> "complete"
  | Partial _ -> "partial"
  | Failed _ -> "failed"

type clause_info = {
  index : int;
  rows : int;
  backend : string;
  predicted_fanout : int;
  order : string list;
  weight : int;
}

type card = {
  fingerprint : string;
  query : string;
  vars : string list;
  outcome : outcome;
  clauses : clause_info list;
  clauses_total : int;
  report : Instr.report;
}

let clause_cap = 64

let clause_infos ~opts ~vars ~summand cls =
  let vs = List.map V.named vars in
  let exact = opts.Engine.strategy = Engine.Exact in
  let const_poly = Option.is_some (Qpoly.to_const summand) in
  List.mapi
    (fun index c ->
      let d = Planner.plan_clause ~exact ~const_poly ~vars:vs c in
      {
        index;
        rows = d.Planner.rows;
        backend = Engine.route_clause ~opts ~vars summand c;
        predicted_fanout = d.Planner.predicted_fanout;
        order = List.map V.to_string (Planner.order c vs);
        weight = d.Planner.weight;
      })
    cls

let build ?(label = "query") ~opts ~vars ~summand ~outcome ~report f =
  let clauses =
    match Engine.to_clauses ~opts f with
    | cls -> clause_infos ~opts ~vars ~summand cls
    | exception _ -> []
  in
  let total = List.length clauses in
  let kept =
    if total <= clause_cap then clauses
    else List.filteri (fun i _ -> i < clause_cap) clauses
  in
  {
    fingerprint = fingerprint ~vars ~summand f;
    query = label;
    vars;
    outcome;
    clauses = kept;
    clauses_total = total;
    report;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let count_metric report name =
  match List.assoc_opt name report.Instr.metrics with
  | Some (Obs.Metrics.Count n) -> n
  | _ -> 0

let pct part whole =
  if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole

let clause_json ci =
  J.Obj
    [
      ("index", J.int ci.index);
      ("rows", J.int ci.rows);
      ("backend", J.Str ci.backend);
      ("predicted_fanout", J.int ci.predicted_fanout);
      ("order", J.Arr (List.map (fun v -> J.Str v) ci.order));
      ("weight", J.int ci.weight);
    ]

let to_ojson card =
  let outcome =
    ("status", J.Str (outcome_status card.outcome))
    ::
    (match card.outcome with
    | Complete -> []
    | Partial r -> [ ("reason", J.Str r) ]
    | Failed e -> [ ("error", J.Str e) ])
  in
  (* Derived hit rates and budget spend, so the card answers the common
     questions without the reader re-deriving them from the report. *)
  let m = card.report.Instr.memo in
  let probes = count_metric card.report "planner.probes" in
  let refuted = count_metric card.report "planner.probe_refuted" in
  let rate part whole = J.fixed 2 (pct part whole) in
  let counter name = J.int (count_metric card.report name) in
  J.Obj
    [
      ("schema", J.Str "omegacount.card.v1");
      ("fingerprint", J.Str card.fingerprint);
      ("query", J.Str card.query);
      ("vars", J.Arr (List.map (fun v -> J.Str v) card.vars));
      ("outcome", J.Obj outcome);
      ("clauses_total", J.int card.clauses_total);
      ("clauses", J.Arr (List.map clause_json card.clauses));
      ( "rates",
        J.Obj
          [
            ("memo_feas_pct", rate m.feas_hits m.feas_queries);
            ("memo_elim_pct", rate m.elim_hits m.elim_queries);
            ("memo_gist_pct", rate m.gist_hits m.gist_queries);
            ("prefilter_probes", J.int probes);
            ("prefilter_refuted_pct", rate refuted probes);
          ] );
      ( "budget",
        J.Obj
          [
            ("fuel_used", counter "budget.fuel_used");
            ("trips", counter "budget.trips");
            ("injections", counter "chaos.injections");
          ] );
      ("report", Instr.to_ojson card.report);
    ]

let to_json card = J.render (to_ojson card)

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)

(* [enabled] is an atomic flag so the disabled check stays a load (the
   CLI consults it before assembling anything); the channel state and
   writes are guarded by [sink_mu], because omegad records cards from
   several handler domains into one sink — each card is written and
   flushed as one line under the lock, so lines never interleave. *)
let on = Atomic.make false
let sink_mu = Mutex.create ()
let sink_path : string option ref = ref None
let sink_oc : out_channel option ref = ref None

let sink_locked f =
  Mutex.lock sink_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock sink_mu) f

let close_locked () =
  match !sink_oc with
  | Some oc ->
      sink_oc := None;
      close_out_noerr oc
  | None -> ()

let close () = sink_locked close_locked

let set_file p =
  sink_locked (fun () ->
      close_locked ();
      sink_path := p);
  Atomic.set on (p <> None)

let () = set_file (Obs.Envcfg.string_opt "OMEGA_TELEMETRY")

let enabled () = Atomic.get on

let sink_channel_locked () =
  match !sink_oc with
  | Some oc -> Some oc
  | None -> (
      match !sink_path with
      | None -> None
      | Some p ->
          let oc =
            open_out_gen [ Open_append; Open_creat ] 0o644 p
          in
          sink_oc := Some oc;
          Some oc)

let record card =
  if enabled () then begin
    (* Serialize outside the lock; write under it. *)
    let line = to_json card in
    sink_locked (fun () ->
        match sink_channel_locked () with
        | None -> ()
        | Some oc ->
            output_string oc line;
            output_char oc '\n';
            flush oc)
  end

let () = Obs.Shutdown.register Obs.Shutdown.Telemetry_close close

(* ------------------------------------------------------------------ *)
(* Ambient context                                                     *)

(* Domain-local, like [Obs.Budget.current]: each request labels its own
   post-mortems without clobbering a concurrent request's context.
   Carried onto pool workers by the ambient capture for completeness,
   though bundles are assembled on the request's own handler domain. *)
let context : (string * string) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let current_context () = !(Domain.DLS.get context)
let set_context kvs = Domain.DLS.get context := kvs
let clear_context () = Domain.DLS.get context := []

(* ------------------------------------------------------------------ *)
(* Post-mortem bundles                                                 *)

let pm_dir = ref (Obs.Envcfg.string_opt "OMEGA_POSTMORTEM_DIR")

let set_postmortem_dir d = pm_dir := d
let postmortem_dir () = !pm_dir

let pm_seq = Atomic.make 0

let trace_tail_cap = 200

let trace_event_json (e : Obs.Trace.event) =
  J.Obj
    [
      ("ph", J.Str (String.make 1 e.ph));
      ("name", J.Str e.name);
      ("ts_us", J.fixed 3 e.ts_us);
    ]

let last n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let bundle_json ~trigger ~card =
  let context =
    match current_context () with
    | [] -> []
    | kvs -> [ ("context", J.obj (fun v -> J.Str v) kvs) ]
  in
  J.render
    (J.Obj
       ([
          ("schema", J.Str "omegacount.postmortem.v1");
          ("trigger", J.Str trigger);
          ("ts", J.fixed 6 (Unix.gettimeofday ()));
        ]
       @ context
       @ [
           ( "flight",
             J.Arr (List.map Obs.Flight.to_ojson (Obs.Flight.recent ())) );
           ("flight_dropped", J.int (Obs.Flight.dropped ()));
           ( "trace",
             J.Arr
               (List.map trace_event_json
                  (last trace_tail_cap (Obs.Trace.events ()))) );
           ("metrics", J.obj Obs.Metrics.sample_json (Obs.Metrics.snapshot ()));
           ("card", match card with Some c -> to_ojson c | None -> J.Null);
         ]))

let write_postmortem ~trigger ?card () =
  match !pm_dir with
  | None -> ()
  | Some dir ->
      (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
       with Unix.Unix_error _ -> ());
      let n = Atomic.fetch_and_add pm_seq 1 in
      let file =
        Filename.concat dir
          (Printf.sprintf "postmortem-%d-%d.json" (Unix.getpid ()) n)
      in
      (* Never let a failing dump mask the error being reported. *)
      (try
         let oc = open_out file in
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () ->
             output_string oc (bundle_json ~trigger ~card);
             output_char oc '\n')
       with Sys_error _ -> ())

(* Domain-local: a trip in one request must produce exactly one bundle
   for that request, flushed by that request's own emit path — not by
   whichever other request finishes first. *)
let pending : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let request_postmortem ~trigger =
  let cell = Domain.DLS.get pending in
  if !pm_dir <> None && !cell = None then cell := Some trigger

let pending_postmortem () = !(Domain.DLS.get pending)

let flush_postmortem ?card () =
  let cell = Domain.DLS.get pending in
  match !cell with
  | None -> ()
  | Some trigger ->
      cell := None;
      write_postmortem ~trigger ?card ()

(* Last-resort flush for CLI paths that trip and exit without emitting:
   runs in the Postmortem slot, before the telemetry sink closes. *)
let () =
  Obs.Shutdown.register Obs.Shutdown.Postmortem (fun () -> flush_postmortem ())

(* The ambient capture carries the request's context and pending cells
   onto pool workers, so a worker-side [request_postmortem] (e.g. from a
   governed helper) lands in the owning request's cells. *)
let () =
  Obs.Ambient.register (fun () ->
      let ctx = Domain.DLS.get context in
      let pend = Domain.DLS.get pending in
      {
        Obs.Ambient.run =
          (fun f ->
            let cctx = Domain.DLS.get context
            and cpend = Domain.DLS.get pending in
            let saved_ctx = !cctx and saved_pend = !cpend in
            cctx := !ctx;
            cpend := !pend;
            Fun.protect
              ~finally:(fun () ->
                (* Propagate a worker-recorded trigger back to the
                   submitting request's cell. *)
                if !cpend <> None && !pend = None then pend := !cpend;
                cctx := saved_ctx;
                cpend := saved_pend)
              f);
      })
