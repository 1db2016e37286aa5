(* A fixed work-stealing domain pool for the counting engine.

   Shape: [jobs - 1] worker domains plus the submitting domain, each with
   its own task queue. A worker prefers its own queue (the tasks it
   spawned while executing, keeping related work local) and steals from
   the other queues when it runs dry. All queue manipulation happens
   under one pool mutex with a condition variable — tasks here are
   chunky (a whole DNF clause or splinter branch of the counting
   recursion), so queue traffic is rare next to task work, and blocking
   idle workers matters far more than lock-free pushes on machines where
   domains outnumber cores.

   Futures are atomic state cells. [await] never blocks on a task that
   nobody has started: it claims [Pending] futures with a CAS and runs
   them inline, and while the target is [Running] elsewhere it helps by
   executing other queued tasks, sleeping only when there is nothing to
   do at all. Every task completion broadcasts, so a sleeping joiner
   re-checks. This makes nested fork/join (splinter branches forked from
   inside a clause task) deadlock-free by construction: the dependency
   graph is a tree, and a joiner always has a productive step or a
   producer to wait on.

   Determinism: the pool never reorders results — [map_results] returns
   results in input order, and the engine's reduction concatenates them
   in that order. Scheduling affects only which domain computes a task,
   and every task is a pure function of its inputs. *)

type task_state =
  | Pending of (unit -> unit)
  | Running
  | Finished

(* The closure stored in the future performs the typed work and stores
   the typed result; the queue only needs to claim-and-run. *)
type 'a result_state =
  | Unset
  | Value of 'a
  | Error of exn * Printexc.raw_backtrace

type 'a future = {
  state : task_state Atomic.t;
  result : 'a result_state Atomic.t;
}

type packed = Packed : 'a future -> packed

let m_tasks = Obs.Metrics.counter "pool.tasks"
let m_steals = Obs.Metrics.counter "pool.steals"
let m_busy_us = Obs.Metrics.counter "pool.busy_us"
let m_cancelled = Obs.Metrics.counter "pool.cancelled_tasks"

type pool = {
  mu : Mutex.t;
  work : Condition.t;  (* queued work OR a task completion *)
  queues : packed Queue.t array;  (* queues.(w): worker w's own tasks *)
  mutable live : bool;
  mutable domains : unit Domain.t array;
  worker_tasks : Obs.Metrics.t array;
}

(* ------------------------------------------------------------------ *)
(* Sizing                                                              *)

let clamp_jobs n = if n < 1 then 1 else if n > 64 then 64 else n

let default_jobs =
  (* values above the 64-domain cap are well-formed requests, just
     clamped, so they go through [clamp_jobs] rather than warning *)
  clamp_jobs
    (Obs.Envcfg.int_or "OMEGA_JOBS" ~min:1
       ~default:(Domain.recommended_domain_count ()))

let jobs_setting = Atomic.make (clamp_jobs default_jobs)

let jobs () = Atomic.get jobs_setting

(* The current pool, if one has been spun up. Guarded by [pool_mu]
   (creation and teardown only — the hot path reads the atomic). *)
let pool_mu = Mutex.create ()
let pool : pool option Atomic.t = Atomic.make None

(* Worker index of the calling domain: 0 for the submitting domain and
   any domain outside the pool, 1.. for pool workers. *)
let worker_ix_key = Domain.DLS.new_key (fun () -> 0)
let worker_ix () = Domain.DLS.get worker_ix_key

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* ------------------------------------------------------------------ *)
(* Task execution                                                      *)

(* Claim [fut] if still pending and run it on the calling domain.
   Returns [true] if this call performed the work. *)
let try_run (Packed fut) p =
  (* CAS on the very value we read: [compare_and_set] is physical
     equality, so rebuilding a [Pending _] block would never match. *)
  let seen = Atomic.get fut.state in
  match seen with
  | Pending run when Atomic.compare_and_set fut.state seen Running ->
      (* tasks are chunky (a whole clause or splinter branch), so one
         flight-recorder note per start is cold next to the task body *)
      Obs.Flight.note "pool.task"
        [ ("worker", string_of_int (worker_ix ())) ];
      let t0 = Unix.gettimeofday () in
      run ();
      Atomic.set fut.state Finished;
      let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
      Obs.Metrics.incr m_tasks;
      Obs.Metrics.incr ~by:us m_busy_us;
      (match p with
      | Some p ->
          let w = worker_ix () in
          if w < Array.length p.worker_tasks then
            Obs.Metrics.incr p.worker_tasks.(w);
          (* wake joiners blocked on this task's completion *)
          locked p.mu (fun () -> Condition.broadcast p.work)
      | None -> ());
      true
  | _ -> false

(* Pop a task under the pool lock: own queue first, then steal. *)
let take_task p ~me =
  let n = Array.length p.queues in
  if not (Queue.is_empty p.queues.(me)) then Some (Queue.pop p.queues.(me))
  else begin
    let found = ref None in
    let i = ref 0 in
    while Option.is_none !found && !i < n do
      if !i <> me && not (Queue.is_empty p.queues.(!i)) then
        found := Some (Queue.pop p.queues.(!i));
      incr i
    done;
    (match !found with Some _ -> Obs.Metrics.incr m_steals | None -> ());
    !found
  end

let worker p ix () =
  Domain.DLS.set worker_ix_key ix;
  let rec loop () =
    let next =
      locked p.mu (fun () ->
          let rec wait () =
            if not p.live then None
            else
              match take_task p ~me:ix with
              | Some t -> Some t
              | None ->
                  Condition.wait p.work p.mu;
                  wait ()
          in
          wait ())
    in
    match next with
    | Some t ->
        ignore (try_run t (Some p));
        loop ()
    | None -> ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Pool lifecycle                                                      *)

let shutdown_pool p =
  locked p.mu (fun () ->
      p.live <- false;
      Condition.broadcast p.work);
  Array.iter Domain.join p.domains;
  p.domains <- [||]

let teardown () =
  locked pool_mu (fun () ->
      match Atomic.get pool with
      | None -> ()
      | Some p ->
          Atomic.set pool None;
          shutdown_pool p)

let () = at_exit teardown

let make_pool n =
  let p =
    {
      mu = Mutex.create ();
      work = Condition.create ();
      queues = Array.init n (fun _ -> Queue.create ());
      live = true;
      domains = [||];
      worker_tasks =
        Array.init n (fun i ->
            Obs.Metrics.counter (Printf.sprintf "pool.worker%d.tasks" i));
    }
  in
  p.domains <- Array.init (n - 1) (fun i -> Domain.spawn (worker p (i + 1)));
  Obs.Flight.note "pool.start" [ ("jobs", string_of_int n) ];
  p

(* Domains marked serial never fan out, whatever [jobs] says: omegad's
   handler domains, which already run one request per core. *)
let serial_key = Domain.DLS.new_key (fun () -> false)

let set_domain_serial () = Domain.DLS.set serial_key true

let parallel_enabled () = jobs () > 1 && not (Domain.DLS.get serial_key)

(* The pool for the current [jobs] setting, spun up on first use. *)
let current () =
  let n = jobs () in
  if not (parallel_enabled ()) then None
  else
    match Atomic.get pool with
    | Some p when Array.length p.queues = n -> Some p
    | _ ->
        locked pool_mu (fun () ->
            match Atomic.get pool with
            | Some p when Array.length p.queues = n -> Some p
            | other ->
                (match other with Some p -> shutdown_pool p | None -> ());
                let p = make_pool n in
                Atomic.set pool (Some p);
                Some p)

let set_jobs n =
  let n = clamp_jobs n in
  if n <> jobs () then begin
    Atomic.set jobs_setting n;
    teardown ()
  end

(* ------------------------------------------------------------------ *)
(* Spawn / await                                                       *)

let run_now f =
  match f () with
  | v -> { state = Atomic.make Finished; result = Atomic.make (Value v) }
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      { state = Atomic.make Finished; result = Atomic.make (Error (e, bt)) }

(* Cooperative cancellation: every pool task polls the ambient budget's
   cancel token as it starts. A task claimed after the budget tripped
   (or one the chaos harness decided to kill) fails immediately with
   [Exhausted] instead of running — this is how workers observe
   cancellation "between tasks"; long-running tasks additionally observe
   it at their own fuel checkpoints. *)
let start_task f =
  match Obs.Budget.task_interrupt () with
  | Some r ->
      Obs.Metrics.incr m_cancelled;
      raise (Obs.Budget.Exhausted r)
  | None -> f ()

let spawn f =
  match current () with
  | None -> run_now (fun () -> start_task f)
  | Some p ->
      (* Snapshot the submitting domain's request-scoped state (budget
         ctrl, prefilter arming, cert recorder, fresh-name cells, memo
         epoch) so the task observes the submitter's request no matter
         which domain ends up executing it — a worker, or another
         submitting domain helping via [await]. omegad's handlers are
         never among them: they are serial, so no two requests share
         this pool. *)
      let wrap = Obs.Ambient.capture () in
      (* Backtrace recording is per domain and a new domain starts with
         it off, so a task run by a worker records only if told to. *)
      let backtraces = Printexc.backtrace_status () in
      let result = Atomic.make Unset in
      let run () =
        Printexc.record_backtrace backtraces;
        match wrap.Obs.Ambient.run (fun () -> start_task f) with
        | v -> Atomic.set result (Value v)
        | exception e ->
            Atomic.set result (Error (e, Printexc.get_raw_backtrace ()))
      in
      let fut = { state = Atomic.make (Pending run); result } in
      locked p.mu (fun () ->
          let w = worker_ix () in
          let w = if w < Array.length p.queues then w else 0 in
          Queue.push (Packed fut) p.queues.(w);
          Condition.signal p.work);
      fut

let rec await fut =
  match Atomic.get fut.state with
  | Finished -> (
      match Atomic.get fut.result with
      | Value v -> v
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Unset -> assert false)
  | Pending _ ->
      (* not started: do it ourselves (or lose the race and loop) *)
      ignore (try_run (Packed fut) (Atomic.get pool));
      await fut
  | Running -> (
      (* someone else is on it: help with other queued work, sleeping
         only when there is none *)
      match Atomic.get pool with
      | None ->
          (* pool torn down mid-task (shouldn't happen in normal flow);
             spin-wait on the producer *)
          Domain.cpu_relax ();
          await fut
      | Some p ->
          let next =
            locked p.mu (fun () ->
                match take_task p ~me:(worker_ix ()) with
                | Some t -> Some t
                | None ->
                    (match Atomic.get fut.state with
                    | Finished -> ()
                    | _ -> Condition.wait p.work p.mu);
                    None)
          in
          (match next with Some t -> ignore (try_run t (Some p)) | None -> ());
          await fut)

(* Await every spawned future, capturing per-item outcomes. [await]
   re-raises a task failure with the backtrace recorded where the task
   body raised; catching it here and immediately reading the backtrace
   preserves that original trace in the [Error]. Awaiting ALL futures —
   even after a failure — means a batch never leaks an unjoined task
   into a later query, and teardown is prompt: under a tripped budget
   the stragglers fail at their first checkpoint. *)
let join_all futs =
  List.map
    (fun fut ->
      match await fut with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    futs

(* The one fan-out primitive. Items are spawned heaviest first (a
   classic makespan heuristic: a predicted straggler should not start
   last; ties keep input order) and joined in input order, so results —
   and which failure a caller re-raises — never depend on [weight] or on
   the schedule. Serial when the pool is disabled. *)
let map_results ?(weight = fun _ -> 0) f xs =
  match xs with
  | [] -> []
  | _ when not (parallel_enabled ()) ->
      List.map
        (fun x ->
          match f x with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        xs
  | _ ->
      let items = List.mapi (fun i x -> (i, weight x, x)) xs in
      let by_weight =
        List.stable_sort (fun (_, w1, _) (_, w2, _) -> compare w2 w1) items
      in
      let futs =
        List.map (fun (i, _, x) -> (i, spawn (fun () -> f x))) by_weight
      in
      join_all
        (List.map snd
           (List.stable_sort (fun (i1, _) (i2, _) -> compare i1 i2) futs))

let map_list f xs =
  List.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    (map_results f xs)
