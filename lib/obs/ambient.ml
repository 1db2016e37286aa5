(* Per-request ambient state propagation — see ambient.mli.

   Modules with request-scoped ambient state (the budget control block,
   the prefilter arming bit, the certificate recorder, fresh-name
   counters, the memo epoch) keep it in domain-local storage and
   register a capture hook here. The worker pool calls [capture] at
   spawn time to snapshot the submitting domain's view, and wraps the
   task body so the executing domain sees exactly that view — and only
   for the duration of the task. So a task runs under its own request's
   ambient state on whichever domain executes it, even when two
   submitting domains share the pool's workers. (omegad's handlers
   never fan out, so there each request's state stays on its handler
   domain.) *)

type wrap = { run : 'a. (unit -> 'a) -> 'a }

let id_wrap = { run = (fun f -> f ()) }

(* Registration happens at module-init time (single-threaded, before any
   pool exists), so a plain ref is safe. *)
let hooks : (unit -> wrap) list ref = ref []

let register h = hooks := h :: !hooks

let compose outer inner = { run = (fun f -> outer.run (fun () -> inner.run f)) }

let capture () =
  List.fold_left (fun acc h -> compose acc (h ())) id_wrap !hooks
