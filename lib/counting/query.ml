(* One governed query, end to end — see query.mli. *)

type result = {
  outcome : Governor.outcome;
  certificate : Obs.Ojson.t option;
  report : Instr.report option;
}

let merged merge (outcome : Governor.outcome) : Governor.outcome =
  let m = Merge.merge_residues in
  match outcome with
  | _ when not merge -> outcome
  | Complete v -> Complete (m v)
  | Partial p ->
      Partial
        {
          p with
          pieces = m p.pieces;
          lower = m p.lower;
          upper = Option.map m p.upper;
        }

(* [Engine.with_instr]'s phase table is process-global and not reentrant
   across concurrent handlers, so a run that collects no report still
   gives its card a real label, wall time and options, with empty
   phase, memo and GC deltas. *)
let minimal_report ~label ~wall_s ~options =
  {
    Instr.label;
    wall_s;
    phases = [];
    memo = Omega.Memo.zero_counters ();
    counts = [];
    metrics = [];
    options;
    minor_words = 0.;
    promoted_words = 0.;
    major_words = 0.;
  }

let run ~label ~opts ~budget ?ctrl ~merge ~certify ~instr ?evals ~at ~source
    ~vars ~summand f =
  let at = List.stable_sort (fun (a, _) (b, _) -> String.compare a b) at in
  let options =
    Engine.opts_fields opts
    @ [ ("fingerprint", Telemetry.fingerprint ~vars ~summand f) ]
  in
  (* Assemble and record the card, handing it to any pending post-mortem
     bundle. Runs after the answer (and under no budget), so it cannot
     affect it. *)
  let card outcome report =
    if Telemetry.enabled () || Telemetry.pending_postmortem () <> None
    then begin
      let card =
        Telemetry.build ~label ~opts ~vars ~summand ~outcome ~report f
      in
      Telemetry.record card;
      Telemetry.flush_postmortem ~card ()
    end
    else Telemetry.flush_postmortem ()
  in
  (* The certificate recorder is observational: the answer path never
     reads it, so certified answers are byte-identical. It records the
     governed sum only; the merge is part of the measured run. *)
  let recorded = ref None in
  let compute () =
    let sum () = Governor.sum ~budget ?ctrl ~opts ~vars f summand in
    merged merge
      (if not certify then sum ()
       else begin
         let outcome, events, dropped = Certify.with_recording sum in
         recorded := Some (events, dropped);
         outcome
       end)
  in
  let t0 = Unix.gettimeofday () in
  match
    if instr then
      let outcome, r = Engine.with_instr ~label ~meta:options compute in
      (outcome, Some r)
    else (compute (), None)
  with
  | outcome, report ->
      let wall_s = Unix.gettimeofday () -. t0 in
      let certificate =
        Option.map
          (fun (events, dropped) ->
            let ats =
              match evals with
              | Some ats -> ats
              | None -> if at = [] then [] else [ at ]
            in
            Certify.build ~opts ~vars ~summand ~query:source ~ats ~outcome
              ~events ~dropped f)
          !recorded
      in
      card
        (match outcome with
        | Complete _ -> Telemetry.Complete
        | Partial p -> Telemetry.Partial (Governor.reason_name p.reason))
        (match report with
        | Some r -> r
        | None -> minimal_report ~label ~wall_s ~options);
      { outcome; certificate; report }
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      let wall_s = Unix.gettimeofday () -. t0 in
      let cls =
        match exn with
        | Engine.Unbounded _ -> "unbounded"
        | Omega.Error.Omega_error { phase; what; context } ->
            Obs.Log.error (fun () ->
                Omega.Error.to_string ~phase ~what context);
            Telemetry.write_postmortem ~trigger:"omega_error" ();
            "omega_error"
        | exn ->
            Obs.Log.error (fun () ->
                label ^ ": internal: " ^ Printexc.to_string exn);
            Telemetry.write_postmortem ~trigger:"internal" ();
            "internal"
      in
      card (Telemetry.Failed cls) (minimal_report ~label ~wall_s ~options);
      Printexc.raise_with_backtrace exn bt
