(* omegad server core — see server.mli. *)

module J = Obs.Ojson

let m_requests = Obs.Metrics.counter "serve.requests"

let m_completed = Obs.Metrics.counter "serve.completed"

let m_partial = Obs.Metrics.counter "serve.partial"

let m_errors = Obs.Metrics.counter "serve.errors"

let m_sweeps = Obs.Metrics.counter "serve.sweeps"

let m_inflight = Obs.Metrics.gauge "serve.inflight"

type config = {
  socket_path : string;
  handlers : int;
  queue_limit : int;
  cache_capacity : int;
  cache_ttl_s : float option;
  idle_sweep_s : float option;
}

let default_config =
  {
    socket_path = "omegad.sock";
    handlers = Domain.recommended_domain_count ();
    queue_limit = 64;
    cache_capacity = 256;
    cache_ttl_s = Some 300.;
    idle_sweep_s = Some 30.;
  }

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* partial-line accumulator; main loop only *)
  wmu : Mutex.t;  (* guards writes and [alive] *)
  mutable alive : bool;
}

type job = { jconn : conn; jid : J.t; jreq : Proto.query_req }

(* A value-tier entry: a complete (merged when the request merges)
   value and its rendered [at]-free body prefix. *)
type entry = { value : Counting.Value.t; prefix : string }

(* One domain's response frame: assembled in [buf], copied into [wire]
   and written with one [write]. Each handler domain owns one, and the
   main loop one for the responses it gives itself. *)
type out = { buf : Buffer.t; mutable wire : Bytes.t }

let out_initial_bytes = 4096

let new_out () =
  { buf = Buffer.create out_initial_bytes; wire = Bytes.create out_initial_bytes }

type t = {
  cfg : config;
  queue : job Admission.t;
  cache : entry Cache.t;
  stopping : bool Atomic.t;
  active : int Atomic.t;  (* requests being processed right now *)
  chunk : Bytes.t;  (* the one read buffer; main loop only *)
  out : out;  (* main loop only *)
}

let max_line_bytes = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Connection writes (any domain)                                      *)

(* The response channel must survive anything a handler throws at it:
   a peer that vanished mid-request downgrades to a dropped response,
   never to a handler crash. [alive] is checked and cleared under
   [wmu], and [close_conn] takes the same lock, so a write never races
   a close on this connection. *)
let send_frame conn out =
  Buffer.add_char out.buf '\n';
  let len = Buffer.length out.buf in
  if Bytes.length out.wire < len then
    out.wire <- Bytes.create (max len (2 * Bytes.length out.wire));
  Buffer.blit out.buf 0 out.wire 0 len;
  Mutex.lock conn.wmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wmu)
    (fun () ->
      if conn.alive then
        let rec push off =
          if off < len then
            match Unix.write conn.fd out.wire off (len - off) with
            | n -> push (off + n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
        in
        match push 0 with
        | () -> ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            conn.alive <- false);
  (* one outsized response must not pin its memory for the domain's life *)
  if len > max_line_bytes then begin
    Buffer.reset out.buf;
    out.wire <- Bytes.create out_initial_bytes
  end

(* Send a frame whose whole body is the rendered object [body]. *)
let send_body conn out id body =
  Proto.open_frame out.buf id;
  Proto.add_body out.buf body;
  Proto.close_frame out.buf;
  send_frame conn out

let close_conn conn =
  Mutex.lock conn.wmu;
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock conn.wmu

(* ------------------------------------------------------------------ *)
(* Request processing (handler domains)                                *)

(* Run one count request through the engine and append its body's
   fields to the frame in [b], under its own request context: the query
   is parsed there too, so wildcard names (and with them the fingerprint
   and any certificate) never depend on earlier traffic. A complete
   value fills the value tier, whether the request certified or not. *)
let computed t b (req : Proto.query_req) ~opts ~vkey =
  let error ~cls ~msg =
    Obs.Metrics.incr m_errors;
    Proto.add_body b (Proto.error_body ~cls ~msg)
  in
  Ctx.with_request (fun () ->
      match Preslang.parse_query req.query with
      | exception Preslang.Parse_error (pos, msg) ->
          error ~cls:"parse_error" ~msg:(Printf.sprintf "at offset %d: %s" pos msg)
      | q -> (
          let fingerprint =
            Counting.Telemetry.fingerprint ~vars:q.Preslang.vars
              ~summand:q.Preslang.summand q.Preslang.formula
          in
          (* the fingerprint needs the parse, so the telemetry context
             goes in now; [with_request] clears it on exit *)
          Counting.Telemetry.set_context
            (("query", "omegad") :: ("fingerprint", fingerprint)
            :: Counting.Engine.opts_fields opts);
          let ctrl = Counting.Governor.ctrl_of req.budget in
          match
            Ctx.with_ctrl_registered ctrl (fun () ->
                (* a handler cannot share the process-global phase
                   table, so cards carry the minimal report *)
                Counting.Query.run ~label:"omegad" ~opts ~budget:req.budget
                  ~ctrl ~merge:req.merge ~certify:req.certify ~instr:false
                  ~at:req.at ~source:req.query ~vars:q.Preslang.vars
                  ~summand:q.Preslang.summand q.Preslang.formula)
          with
          | { outcome; certificate; _ } ->
              (match outcome with
              | Counting.Governor.Complete value ->
                  Obs.Metrics.incr m_completed;
                  let prefix = Counting.Answer.complete_prefix value in
                  Cache.add t.cache vkey { value; prefix };
                  Proto.add_prefix b prefix;
                  Counting.Answer.add_eval b ~at:req.at value
              | Counting.Governor.Partial p ->
                  Obs.Metrics.incr m_partial;
                  Proto.add_body b (Counting.Answer.partial_json ~at:req.at p));
              Option.iter (Proto.add_certificate b) certificate
          | exception Counting.Engine.Unbounded msg -> error ~cls:"unbounded" ~msg
          | exception Omega.Error.Omega_error { phase; what; context } ->
              error ~cls:"omega_error"
                ~msg:(Omega.Error.to_string ~phase ~what context)
          | exception exn ->
              error ~cls:"internal" ~msg:(Printexc.to_string exn)))

(* Answer one admitted count request: append its body's fields to the
   frame in [b]. A plain request whose query and options were counted
   before is a value-tier hit: no parse, no fingerprint, no engine, only
   the evaluation at its own bindings. A certified request always runs,
   so its certificate records the run that answered it. *)
let answer t b (req : Proto.query_req) =
  Obs.Metrics.incr m_requests;
  let opts = Proto.opts_of req in
  let vkey = Cache.value_key ~query:req.query ~opts ~merge:req.merge in
  match if req.certify then None else Cache.find t.cache vkey with
  | Some { value; prefix } ->
      Obs.Metrics.incr m_completed;
      Proto.add_prefix b prefix;
      Counting.Answer.add_eval b ~at:req.at value
  | None -> computed t b req ~opts ~vkey

(* Every failure mode maps to a typed body, so the handler loop (and
   the server) never sees an exception. *)
let answer_frame t b id req =
  Proto.open_frame b id;
  (* During drain, already-queued requests are refused rather than
     started (starting one after cancel_inflight would let it run to
     completion and stall the drain). *)
  if Atomic.get t.stopping then
    Proto.add_body b
      (Proto.error_body ~cls:"unavailable" ~msg:"server is shutting down")
  else begin
    (* Crash-only: a bug anywhere in the request path degrades to a
       typed internal error for this request; the loop lives. *)
    try answer t b req
    with exn ->
      Obs.Metrics.incr m_errors;
      Proto.open_frame b id;
      Proto.add_body b
        (Proto.error_body ~cls:"internal" ~msg:(Printexc.to_string exn))
  end;
  Proto.close_frame b

(* Minor heap of a handler domain, in words (the runtime default is
   256k), set as the domain starts. A request's garbage stays young, so
   half the default keeps throughput, and each handler maps 1 MB less
   once a hit-heavy load has cycled through its whole minor heap. The
   reader domain keeps the default: at 128k its own collections, each
   stopping every domain, raised serve-mixed's median latency. *)
let handler_minor_heap_words = 131_072

let handler_loop t =
  Gc.set { (Gc.get ()) with minor_heap_size = handler_minor_heap_words };
  let out = new_out () in
  let rec loop () =
    match Admission.take t.queue with
    | None -> ()
    | Some job ->
        Atomic.incr t.active;
        Obs.Metrics.set m_inflight (Atomic.get t.active);
        answer_frame t out.buf job.jid job.jreq;
        Atomic.decr t.active;
        Obs.Metrics.set m_inflight (Atomic.get t.active);
        send_frame job.jconn out;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Reader / accept loop (main domain)                                  *)

let metrics_text () = Obs.Openmetrics.render (Obs.Metrics.snapshot ())

(* Dispatch one complete request line read from [conn]. Inline verbs
   (ping/metrics/shutdown) answer from the reader loop; count requests
   go through admission. *)
let dispatch t conn line =
  if String.trim line <> "" then
    let send id body = send_body conn t.out id body in
    match Proto.parse line with
    | Error (id, msg) ->
        Obs.Metrics.incr m_errors;
        send id (Proto.error_body ~cls:"bad_request" ~msg)
    | Ok { Proto.id; op = Proto.Ping } -> send id Proto.pong_body
    | Ok { Proto.id; op = Proto.Metrics } ->
        send id (Proto.metrics_body (metrics_text ()))
    | Ok { Proto.id; op = Proto.Shutdown } ->
        send id Proto.shutdown_body;
        Atomic.set t.stopping true
    | Ok { Proto.id; op = Proto.Count req } -> (
        match Admission.submit t.queue { jconn = conn; jid = id; jreq = req } with
        | `Accepted -> ()
        | `Shed depth ->
            send id (Proto.shed_body ~depth ~limit:(Admission.limit t.queue))
        | `Closed ->
            send id
              (Proto.error_body ~cls:"unavailable" ~msg:"server is shutting down"))

let reject_long_line t conn =
  Obs.Metrics.incr m_errors;
  send_body conn t.out J.Null
    (Proto.error_body ~cls:"bad_request"
       ~msg:(Printf.sprintf "request line longer than %d bytes" max_line_bytes))

(* Pull complete lines out of a connection's accumulator. [false] when a
   line, complete or not, is longer than [max_line_bytes]. *)
let drain_lines t conn =
  let s = Buffer.contents conn.rbuf in
  let rec next start =
    match String.index_from_opt s start '\n' with
    | Some nl when nl - start <= max_line_bytes ->
        dispatch t conn (String.sub s start (nl - start));
        next (nl + 1)
    | Some _ -> false
    | None ->
        let rest = String.length s - start in
        if start > 0 then begin
          Buffer.clear conn.rbuf;
          Buffer.add_substring conn.rbuf s start rest
        end;
        rest <= max_line_bytes
  in
  next 0

(* [false] when the connection is done: the peer closed it, or it sent
   an over-long line (answered with one [bad_request] first). *)
let read_chunk t conn =
  match Unix.read conn.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes conn.rbuf t.chunk 0 n;
      drain_lines t conn || (reject_long_line t conn; false)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

(* Returns a function that puts back the SIGTERM/SIGINT behaviours it
   replaced, so a process that ran a server in-process (a test binary)
   answers those signals as before once the server has stopped. *)
let install_signal_handlers t =
  (* Peers that vanish must surface as EPIPE write errors, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stop _ = Atomic.set t.stopping true in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle stop) in
  fun () ->
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int

let create config =
  {
    cfg = config;
    queue = Admission.create ~limit:config.queue_limit;
    cache =
      Cache.create ~capacity:config.cache_capacity ?ttl_s:config.cache_ttl_s
        ~weight:(fun e -> List.length e.value)
        ();
    stopping = Atomic.make false;
    active = Atomic.make 0;
    chunk = Bytes.create 65536;
    out = new_out ();
  }

let run ?(config = default_config) () =
  let t = create config in
  let restore_signals = install_signal_handlers t in
  Fun.protect ~finally:restore_signals @@ fun () ->
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;
  Obs.Log.info
    ~fields:(fun () ->
      [
        ("socket", Obs.Trace.Str config.socket_path);
        ("handlers", Obs.Trace.Int config.handlers);
        ("queue_limit", Obs.Trace.Int config.queue_limit);
      ])
    (fun () -> "omegad listening");
  let handlers =
    List.init (max 1 config.handlers) (fun _ ->
        Domain.spawn (fun () -> handler_loop t))
  in
  let conns = ref [] in
  let last_activity = ref (Unix.gettimeofday ()) in
  let maybe_sweep () =
    match t.cfg.idle_sweep_s with
    | Some idle_s
      when Unix.gettimeofday () -. !last_activity >= idle_s
           && Admission.depth t.queue = 0
           && Atomic.get t.active = 0 ->
        (* Idle housekeeping: retire expired cache entries and drop the
           solver memo (whose entries are epoch-dead once their request
           finished, so this is pure reclamation). *)
        ignore (Cache.purge_expired t.cache);
        Omega.Memo.clear_all ();
        Obs.Metrics.incr m_sweeps;
        last_activity := Unix.gettimeofday ()
    | _ -> ()
  in
  while not (Atomic.get t.stopping) do
    let fds = listen_fd :: List.map (fun c -> c.fd) !conns in
    match Unix.select fds [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        if readable = [] then maybe_sweep ()
        else begin
          last_activity := Unix.gettimeofday ();
          List.iter
            (fun fd ->
              if fd == listen_fd then begin
                match Unix.accept listen_fd with
                | cfd, _ ->
                    conns :=
                      {
                        fd = cfd;
                        rbuf = Buffer.create 256;
                        wmu = Mutex.create ();
                        alive = true;
                      }
                      :: !conns
                | exception Unix.Unix_error _ -> ()
              end
              else
                match List.find_opt (fun c -> c.fd == fd) !conns with
                | None -> ()
                | Some conn ->
                    if not (read_chunk t conn) then begin
                      close_conn conn;
                      conns := List.filter (fun c -> c != conn) !conns
                    end)
            readable
        end
  done;
  (* Drain: stop admitting, cancel in-flight work (each request degrades
     to a sound Partial at its next budget checkpoint), let handlers
     finish writing, then tear the socket down. *)
  Obs.Log.info (fun () -> "omegad draining");
  Admission.close t.queue;
  let cancelled = Ctx.cancel_inflight () in
  if cancelled > 0 then
    Obs.Log.info
      ~fields:(fun () -> [ ("cancelled", Obs.Trace.Int cancelled) ])
      (fun () -> "cancelled in-flight requests");
  List.iter Domain.join handlers;
  List.iter close_conn !conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  Obs.Log.info (fun () -> "omegad stopped")
