(* omegad: long-running counting service over a Unix-domain socket.

   One domain per core: [--handlers] domains (default the core count)
   each answer one request at a time, serially. Requests run in
   parallel across handlers.

   Server:
     omegad --socket /tmp/omegad.sock --handlers 4
   Client (for shells and CI — pumps stdin lines to the socket):
     echo '{"id":1,"query":"count { i : 1 <= i <= n }","at":{"n":9}}' \
       | omegad --client --socket /tmp/omegad.sock *)

let () =
  let cfg = ref Serve.Server.default_config in
  let set f = cfg := f !cfg in
  let client = ref false in
  let metrics_file = ref None in
  let spec =
    [
      ( "--socket",
        Arg.String (fun s -> set (fun c -> { c with Serve.Server.socket_path = s })),
        "PATH  Unix-domain socket path (default omegad.sock)" );
      ( "--handlers",
        Arg.Int (fun n -> set (fun c -> { c with Serve.Server.handlers = n })),
        "N  handler domains — concurrent requests in flight, each run \
         serially (default the machine's core count)" );
      ( "--queue",
        Arg.Int (fun n -> set (fun c -> { c with Serve.Server.queue_limit = n })),
        "N  admission-queue bound; beyond it requests are shed (default 64)" );
      ( "--cache-size",
        Arg.Int
          (fun n -> set (fun c -> { c with Serve.Server.cache_capacity = n })),
        "N  value-cache bound, in guarded pieces: each cached answer \
         weighs its piece count (at least 1) and one heavier than N is \
         not cached (default 256)" );
      ( "--cache-ttl-s",
        Arg.Float
          (fun s ->
            set (fun c ->
                { c with Serve.Server.cache_ttl_s = (if s <= 0. then None else Some s) })),
        "S  value-cache TTL in seconds; 0 disables expiry (default 300)" );
      ( "--idle-sweep-s",
        Arg.Float
          (fun s ->
            set (fun c ->
                { c with Serve.Server.idle_sweep_s = (if s <= 0. then None else Some s) })),
        "S  idle seconds before a memo/cache sweep; 0 disables (default 30)" );
      ( "--metrics-out",
        Arg.String (fun f -> metrics_file := Some f),
        "FILE  write the metrics registry to FILE at exit in \
         OpenMetrics/Prometheus text format (also served live by the \
         \"metrics\" verb)" );
      ( "--telemetry",
        Arg.String (fun f -> Counting.Telemetry.set_file (Some f)),
        "FILE  append one JSON report card per request to FILE (also \
         $OMEGA_TELEMETRY)" );
      ( "--log-level",
        Arg.Symbol
          ([ "off"; "error"; "warn"; "info"; "debug" ],
           fun s ->
             match Obs.Log.level_of_string s with
             | Some l -> Obs.Log.set_level l
             | None -> ()),
        "  structured-log level (JSON lines on stderr; default $OMEGA_LOG \
         or off)" );
      ( "--client",
        Arg.Set client,
        "  connect to --socket instead of serving: send each stdin line \
         as a request, print each response line to stdout" );
    ]
  in
  let usage = "omegad [--client] [options]" in
  Arg.parse spec
    (fun s -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" s)))
    usage;
  (match !metrics_file with
  | None -> ()
  | Some f ->
      at_exit (fun () ->
          let oc = open_out f in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> Obs.Openmetrics.write oc (Obs.Metrics.snapshot ()))));
  if !client then begin
    let c =
      try Serve.Client.connect ~retries:100 !cfg.Serve.Server.socket_path
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "omegad: cannot connect to %s: %s\n"
          !cfg.Serve.Server.socket_path (Unix.error_message e);
        exit 2
    in
    (* One response per request, in order — the client keeps one request
       in flight, so ordering is the server's response ordering per
       connection. *)
    (try
       while true do
         let line = input_line stdin in
         if String.trim line <> "" then print_endline (Serve.Client.request c line)
       done
     with End_of_file -> ());
    Serve.Client.close c
  end
  else Serve.Server.run ~config:!cfg ()
