(* Deterministic fault injection — see chaos.mli.

   Each decision hashes (seed, event index) with a splitmix-style mixer;
   the event index comes from a global atomic counter, so one governed
   query at a time replays its schedule exactly (concurrent queries on
   several domains share the counter, reproducible per interleaving).
   The harness's correctness battery never depends on WHICH fault
   fires, only that every fired fault is absorbed into a sound
   outcome. *)

type cfg = { seed : int; rate : int }

let default_rate = 64

let state : cfg option Atomic.t = Atomic.make None
let checkpoint_events = Atomic.make 0
let injected = Atomic.make 0
let m_injections = Obs.Metrics.counter "chaos.injections"

let enabled () = Atomic.get state <> None
let injections () = Atomic.get injected

(* forward declaration: [set] (un)registers the budget hook so that
   checkpoints in chaos-free runs never pay for a hook closure call *)
let register_hook = ref (fun _ -> ())

let set ?(rate = default_rate) seed =
  Atomic.set checkpoint_events 0;
  let cfg =
    match seed with
    | Some seed -> Some { seed; rate = (if rate < 1 then 1 else rate) }
    | None -> None
  in
  Atomic.set state cfg;
  !register_hook (cfg <> None)

(* 62-bit splitmix-style avalanche; constants truncated to fit OCaml's
   int literals. Quality only has to beat "every Nth event". *)
let mix a b =
  let h = ref (a lxor (b * 0x9E3779B97F4A7C1)) in
  h := !h lxor (!h lsr 30);
  h := !h * 0xBF58476D1CE4E5B;
  h := !h lxor (!h lsr 27);
  h := !h * 0x94D049BB133111E;
  h := !h lxor (!h lsr 31);
  !h land max_int

let record_injection () =
  Atomic.incr injected;
  Obs.Metrics.incr m_injections;
  Obs.Flight.note "chaos.injection"
    [ ("n", string_of_int (Atomic.get injected)) ]

(* Checkpoint faults simulate the budget's own trip conditions, so the
   whole degradation path downstream of a real exhaustion is exercised:
   latch-first-reason, cancel, partial assembly. *)
let checkpoint_hook () =
  match Atomic.get state with
  | None -> None
  | Some { seed; rate } ->
      let n = Atomic.fetch_and_add checkpoint_events 1 in
      let h = mix seed n in
      if h mod rate <> 0 then None
      else begin
        record_injection ();
        Some
          (if (h / rate) land 1 = 0 then Obs.Budget.Fuel
           else Obs.Budget.Deadline)
      end

let installed = Atomic.make false

let install () =
  if not (Atomic.exchange installed true) then begin
    (register_hook :=
       fun on ->
         Obs.Budget.set_chaos_hook (if on then Some checkpoint_hook else None));
    match Obs.Envcfg.int_opt "OMEGA_CHAOS" with
    | None -> ()
    | Some seed ->
        let rate =
          Obs.Envcfg.int_or "OMEGA_CHAOS_RATE" ~min:1 ~default:default_rate
        in
        set ~rate (Some seed)
  end
