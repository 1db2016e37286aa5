(* Ambient resource budget — see budget.mli.

   The control block is domain-local: each request (one handler domain
   in omegad, or the whole process in omcount) installs its own and runs
   serially on that domain, so a request charges its own fuel and trips
   on its own. The cancel token and the latched reason are atomic
   because [cancel] comes from another domain (omegad's reader cancels
   in-flight requests on shutdown); [tripped_r] latches the FIRST
   reason, so every later checkpoint reports the same cause. *)

type reason = Deadline | Fuel | Fanout | Clauses | Cancelled

let reason_name = function
  | Deadline -> "deadline"
  | Fuel -> "fuel"
  | Fanout -> "fanout"
  | Clauses -> "clauses"
  | Cancelled -> "cancelled"

exception Exhausted of reason

let () =
  Printexc.register_printer (function
    | Exhausted r -> Some (Printf.sprintf "Obs.Budget.Exhausted(%s)" (reason_name r))
    | _ -> None)

type ctrl = {
  deadline : float;  (* absolute gettimeofday seconds; [infinity] = none *)
  fuel : int Atomic.t;  (* remaining units; meaningful when [fuel0 <> None] *)
  fuel0 : int option;
  max_fanout : int;
  max_clauses : int;
  cancelled : bool Atomic.t;
  tripped_r : reason option Atomic.t;
  polls : int Atomic.t;  (* throttles the deadline clock read *)
}

let make ?deadline_s ?fuel ?max_fanout ?max_clauses () =
  {
    deadline =
      (match deadline_s with
      | Some s -> Unix.gettimeofday () +. s
      | None -> infinity);
    fuel = Atomic.make (match fuel with Some f -> f | None -> max_int);
    fuel0 = fuel;
    max_fanout = (match max_fanout with Some n -> n | None -> max_int);
    max_clauses = (match max_clauses with Some n -> n | None -> max_int);
    cancelled = Atomic.make false;
    tripped_r = Atomic.make None;
    polls = Atomic.make 0;
  }

(* The executing domain's view of "the current request's ctrl". A ref
   cell per domain (not an atomic): only the owning domain reads or
   writes its cell, on the [charge] hot path. *)
let current : ctrl option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let active () = !(Domain.DLS.get current)

let chaos_hook : (unit -> reason option) option Atomic.t = Atomic.make None
let set_chaos_hook h = Atomic.set chaos_hook h

let m_trips = Metrics.counter "budget.trips"
let m_fuel_used = Metrics.counter "budget.fuel_used"

let tripped c = Atomic.get c.tripped_r

let fuel_used c =
  match c.fuel0 with
  | None -> 0
  | Some f0 ->
      (* the charge that trips decrements past zero; clamp to the
         allowance *)
      let used = f0 - Atomic.get c.fuel in
      if used < 0 then 0 else if used > f0 then f0 else used

(* Latch the first reason, raise the cancel flag, and unwind. Later
   trips re-raise the latched reason, so the whole run reports one
   cause. *)
let trip c r =
  let first = Atomic.compare_and_set c.tripped_r None (Some r) in
  Atomic.set c.cancelled true;
  if first then begin
    Metrics.incr m_trips;
    Flight.note "budget.trip" [ ("reason", reason_name r) ];
    if Trace.enabled () then
      Trace.instant "budget.trip"
        ~attrs:(fun () -> [ ("reason", Trace.Str (reason_name r)) ])
  end;
  let r = match Atomic.get c.tripped_r with Some r -> r | None -> r in
  raise (Exhausted r)

let cancel c =
  ignore (Atomic.compare_and_set c.tripped_r None (Some Cancelled));
  Atomic.set c.cancelled true

(* Deadline, cancel token, chaos — everything except fuel. *)
let poll c =
  (match Atomic.get c.tripped_r with
  | Some r -> raise (Exhausted r)
  | None -> ());
  if Atomic.get c.cancelled then trip c Cancelled;
  (match Atomic.get chaos_hook with
  | Some h -> ( match h () with Some r -> trip c r | None -> ())
  | None -> ());
  (* Reading the clock costs more than the whole rest of the checkpoint,
     so consult it only every 32nd poll: detection latency of a few
     engine steps, against deadlines measured in milliseconds. *)
  if
    c.deadline < infinity
    && Atomic.fetch_and_add c.polls 1 land 31 = 0
    && Unix.gettimeofday () > c.deadline
  then trip c Deadline

let charge n =
  match active () with
  | None -> ()
  | Some c -> (
      poll c;
      (* pattern match, not [<> None]: this runs once per engine step
         and a polymorphic compare here is a measurable C call *)
      match c.fuel0 with
      | None -> ()
      | Some _ -> if Atomic.fetch_and_add c.fuel (-n) < n then trip c Fuel)

let check_fanout n =
  match active () with
  | None -> ()
  | Some c ->
      poll c;
      if n > c.max_fanout then trip c Fanout

let check_clauses n =
  match active () with
  | None -> ()
  | Some c ->
      poll c;
      if n > c.max_clauses then trip c Clauses

let with_ctrl c f =
  let cell = Domain.DLS.get current in
  (match !cell with
  | Some _ ->
      invalid_arg "Obs.Budget.with_ctrl: a control block is already active"
  | None -> ());
  cell := Some c;
  Fun.protect
    ~finally:(fun () ->
      cell := None;
      let used = fuel_used c in
      if used > 0 then Metrics.incr ~by:used m_fuel_used)
    f
