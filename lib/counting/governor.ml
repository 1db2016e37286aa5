(* Resource-governed counting — see governor.mli. *)

(* Make sure the chaos hooks are registered (and OMEGA_CHAOS honoured)
   in any program that can run a governed query. *)
let () = Chaos.install ()

type budget = {
  deadline_ms : int option;
  fuel : int option;
  max_fanout : int option;
  max_clauses : int option;
}

let unlimited =
  { deadline_ms = None; fuel = None; max_fanout = None; max_clauses = None }

type reason = Obs.Budget.reason =
  | Deadline
  | Fuel
  | Fanout
  | Clauses
  | Cancelled
  | Injected

let reason_name = Obs.Budget.reason_name

type partial = {
  pieces : Value.t;
  pieces_done : int;
  clauses_done : int;
  clauses_total : int;
  reason : reason;
  lower : Value.t;
  upper : Value.t option;
}

type outcome = Complete of Value.t | Partial of partial

let ctrl_of b =
  Obs.Budget.make
    ?deadline_s:(Option.map (fun ms -> float_of_int ms /. 1000.) b.deadline_ms)
    ?fuel:b.fuel ?max_fanout:b.max_fanout ?max_clauses:b.max_clauses ()

(* Fuel allowance for the over-approximation shadow run: enough for any
   reasonable formula's real-shadow pass, small enough that a
   pathological one cannot turn the degradation path itself into a
   hang. *)
let shadow_fuel = 50_000

(* Whole-formula Upper-strategy (real-shadow) count under a fresh small
   budget — the "where cheap" over-approximation. The main control
   block is already uninstalled when this runs. *)
let upper_estimate opts ~vars f poly =
  let opts = { opts with Engine.strategy = Engine.Upper } in
  let ctrl = Obs.Budget.make ~fuel:shadow_fuel () in
  match Obs.Budget.with_ctrl ctrl (fun () -> Engine.sum ~opts ~vars f poly) with
  | v -> Some v
  | exception Obs.Budget.Exhausted _ -> None
  | exception Engine.Unbounded _ -> None
  | exception Omega.Error.Omega_error _ -> None

(* The sum of completed disjoint pieces under-approximates the total
   only when each piece is itself a sound per-region lower bound:
   exact pieces (Exact) or dark-shadow/tightened pieces (Lower), over a
   disjoint clause list. Symbolic pieces carry real-shadow emptiness
   guards and Upper pieces over-count, so those degrade to lower = 0. *)
let sound_lower (opts : Engine.options) =
  opts.disjoint
  && match opts.strategy with
     | Engine.Exact | Engine.Lower -> true
     | Engine.Upper | Engine.Symbolic -> false

let sum ?(budget = unlimited) ?ctrl ?(opts = Engine.default) ?stats ~vars f
    poly =
  let ctrl = match ctrl with Some c -> c | None -> ctrl_of budget in
  (* The feasibility pre-filter is armed (outside negations) in
     [to_clauses] and [clause_sums]; every probe charges this
     control block's fuel (one unit per probe plus one per
     box-enumeration chunk), so pre-filter work is metered by the same
     budget as the solver work it saves. *)
  let run =
    Obs.Budget.with_ctrl ctrl (fun () ->
        match Engine.to_clauses ~opts f with
        | cls -> (
            match Engine.clause_sums ~opts ?stats ~vars cls poly with
            | per ->
                (* A clause that ran out of budget is a hole in the
                   partial answer; any other failure ([Unbounded], a
                   bug, …) is the query's, re-raised first in clause
                   order. *)
                `Clauses
                  ( List.length cls,
                    List.map
                      (function
                        | Ok v -> Ok v
                        | Error (Obs.Budget.Exhausted r, _) -> Error r
                        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
                      per )
            | exception Obs.Budget.Exhausted r -> `Tripped r)
        | exception Obs.Budget.Exhausted r -> `Tripped r)
  in
  (* Assembly happens with the control block uninstalled: simplification
     and the shadow run must not be cut short by the already-tripped
     budget. *)
  let mk_partial ~clauses_done ~clauses_total ~reason vals =
    let pieces = Engine.simplify_clauses vals in
    Obs.Log.warn
      ~fields:(fun () ->
        [
          ("reason", Obs.Trace.Str (reason_name reason));
          ("clauses_done", Obs.Trace.Int clauses_done);
          ("clauses_total", Obs.Trace.Int clauses_total);
        ])
      (fun () -> "governed query degraded to a partial answer");
    (* The finished report card does not exist yet (instrumentation is
       still collecting); the CLI / bench supplies it at flush time. *)
    Telemetry.request_postmortem ~trigger:("budget." ^ reason_name reason);
    Partial
      {
        pieces;
        pieces_done = List.length pieces;
        clauses_done;
        clauses_total;
        reason;
        lower = (if sound_lower opts then pieces else Value.zero);
        upper = upper_estimate opts ~vars f poly;
      }
  in
  match run with
  | `Clauses (_, per) when List.for_all Result.is_ok per ->
      Complete (Engine.simplify_clauses (List.filter_map Result.to_option per))
  | `Clauses (total, per) ->
      let vals = List.filter_map Result.to_option per in
      let reason =
        (* The latched first reason when the budget tripped globally; an
           isolated injected task kill latches nothing, so fall back to
           the first per-clause reason in clause order. *)
        match Obs.Budget.tripped ctrl with
        | Some r -> r
        | None -> (
            match
              List.find_map
                (function Error r -> Some r | Ok _ -> None)
                per
            with
            | Some r -> r
            | None -> assert false)
      in
      mk_partial ~clauses_done:(List.length vals) ~clauses_total:total ~reason
        vals
  | `Tripped r -> mk_partial ~clauses_done:0 ~clauses_total:0 ~reason:r []

let count ?budget ?ctrl ?opts ?stats ~vars f =
  sum ?budget ?ctrl ?opts ?stats ~vars f Qpoly.one
