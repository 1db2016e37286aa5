(* serve-mixed and serve-hot: the real omegad binary at its default
   flags, driven in a closed loop by [conns] client connections from
   this process (each sends its next request only after the previous
   answer arrives, as a compiler would).

   Every response is checked byte for byte against the body an
   in-process replay of the same request renders (the server's own
   path: parse → fingerprint → cache key → [Governor.sum] under a fresh
   request context → merge → [Answer.complete_json], plus
   [Certify.build] when the request certifies), and every returned
   certificate must be accepted by [Certcheck.check_line]. *)

module C = Corpus
module J = Obs.Ojson

let conns = 2

let setup_reps = 7

(* ------------------------------------------------------------------ *)
(* The server process                                                   *)

type server = { pid : int; sock : string }

(* The socket path is relative to the working directory (the harness
   runs from its output directory), which keeps it short however deep
   the checkout is. *)
let spawn ~omegad ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process omegad [| omegad; "--socket"; sock |] null null null
  in
  Unix.close null;
  { pid; sock }

(* Readiness is polled here at 0.2 ms granularity, not through
   [Client.connect]'s 50 ms retry sleep, so set-up time measures the
   server, not the sleep. *)
let connect_ready srv =
  let give_up = Unix.gettimeofday () +. 30. in
  let rec go () =
    match Serve.Client.connect srv.sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < give_up ->
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let ping c =
  let r = Serve.Client.request c {|{"op":"ping"}|} in
  if not (String.length r > 0 && r.[0] = '{') then failwith ("bad ping reply " ^ r)

let stop srv c =
  (try ignore (Serve.Client.request c {|{"op":"shutdown"}|}) with _ -> ());
  Serve.Client.close c;
  ignore (Unix.waitpid [] srv.pid);
  (try Unix.unlink srv.sock with Unix.Unix_error _ -> ())

(* Counters from the [metrics] verb's OpenMetrics text. *)
let server_metrics c =
  match J.parse (Serve.Client.request c {|{"op":"metrics"}|}) with
  | Ok o -> (
      match J.member "metrics" o with
      | Some (J.Str text) ->
          String.split_on_char '\n' text
          |> List.filter_map (fun l ->
                 match String.index_opt l ' ' with
                 | Some i when l <> "" && l.[0] <> '#' ->
                     Option.map
                       (fun v -> (String.sub l 0 i, v))
                       (float_of_string_opt
                          (String.sub l (i + 1) (String.length l - i - 1)))
                 | _ -> None)
      | _ -> [])
  | Error _ -> []

let metric_delta before after name =
  let get l = Option.value ~default:0. (List.assoc_opt name l) in
  get after -. get before

(* ------------------------------------------------------------------ *)
(* In-process replay                                                    *)

(* The server splices the certificate before the body's closing brace. *)
let with_certificate body cert =
  Printf.sprintf "%s,\"certificate\":%s}"
    (String.sub body 0 (String.length body - 1))
    (J.render cert)

type replayed = {
  value : Counting.Value.t;
  recorded : (Cert.event list * int) option;
  body : string;  (** the id-free response body *)
}

let span = Spans.span

(* Replays one request line the way omegad answers a cache miss. *)
let replay line =
  let req =
    match Serve.Proto.parse line with
    | Ok { Serve.Proto.op = Serve.Proto.Count r; _ } -> r
    | _ -> failwith ("not a count request: " ^ line)
  in
  span "serve.replay" @@ fun () ->
  let q = span "preslang.parse" (fun () -> Preslang.parse_query req.query) in
  let opts = Serve.Proto.opts_of req in
  ignore
    (span "serve.key" (fun () ->
         let fingerprint =
           Counting.Telemetry.fingerprint ~vars:q.Preslang.vars
             ~summand:q.Preslang.summand q.Preslang.formula
         in
         Serve.Cache.key ~fingerprint ~opts ~merge:req.merge
           ~certify:req.certify ~at:req.at));
  Serve.Ctx.with_request (fun () ->
      let ctrl = Counting.Governor.ctrl_of req.budget in
      let compute () =
        span "counting.governor_sum" (fun () ->
            Counting.Governor.sum ~ctrl ~opts ~vars:q.Preslang.vars
              q.Preslang.formula q.Preslang.summand)
      in
      let outcome, recorded =
        if req.certify then
          let o, events, dropped = Counting.Certify.with_recording compute in
          (o, Some (events, dropped))
        else (compute (), None)
      in
      match outcome with
      | Counting.Governor.Partial _ -> failwith "in-process replay went partial"
      | Counting.Governor.Complete v ->
          let value =
            if req.merge then
              span "counting.merge" (fun () -> Counting.Merge.merge_residues v)
            else v
          in
          let body =
            span "answer.render" (fun () ->
                Counting.Answer.complete_json ~at:req.at value)
          in
          let body =
            match recorded with
            | None -> body
            | Some (events, dropped) ->
                span "certify.build" (fun () ->
                    with_certificate body
                      (Counting.Certify.build ~opts ~vars:q.Preslang.vars
                         ~summand:q.Preslang.summand ~query:req.query
                         ~ats:(if req.at = [] then [] else [ req.at ])
                         ~outcome:(Counting.Certify.Complete value)
                         ~events ~dropped q.Preslang.formula))
          in
          { value; recorded; body })

(* The expected id-free body of a request, from its class's reference
   replay: the symbolic answer does not depend on the binding, so only
   the evaluation (and a certificate's evaluation point) is redone. *)
type reference = {
  parsed : Preslang.query;
  opts : Counting.Engine.options;
  plain : replayed;
  certified : replayed Lazy.t;
}

let reference cls =
  let line certify = C.request_line ~id:0 cls ~n:cls.C.n_lo ~certify in
  let opts =
    match Serve.Proto.parse (line false) with
    | Ok { Serve.Proto.op = Serve.Proto.Count r; _ } -> Serve.Proto.opts_of r
    | _ -> assert false
  in
  {
    parsed = Preslang.parse_query cls.C.text;
    opts;
    plain = replay (line false);
    certified = lazy (replay (line true));
  }

let expected_body rf (r : C.request) =
  let at = [ ("n", Zint.of_int r.C.n) ] in
  let body = Counting.Answer.complete_json ~at rf.plain.value in
  if not r.C.certify then body
  else
    let c = Lazy.force rf.certified in
    let events, dropped = Option.get c.recorded in
    with_certificate body
      (Counting.Certify.build ~opts:rf.opts ~vars:rf.parsed.Preslang.vars
         ~summand:rf.parsed.Preslang.summand ~query:r.C.cls.C.text ~ats:[ at ]
         ~outcome:(Counting.Certify.Complete c.value) ~events ~dropped
         rf.parsed.Preslang.formula)

let with_id id body = Serve.Proto.with_id (J.Num (float_of_int id)) body

(* [Certcheck.check_line] accepts when the exact checker accepts and the
   overflow-trapping one agrees or overflowed. *)
let cert_accepted cert_line =
  match Certcheck.check_line cert_line with
  | Certcheck.Accepted _, (Certcheck.Accepted _ | Certcheck.Overflowed) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Load                                                                 *)

type sample = {
  req : C.request;
  lat : float;  (** seconds, client-observed round trip *)
  ok : bool;  (** transport succeeded and (where checked inline) bytes matched *)
  resp : string;
}

(* [conns] client domains, each with its own connection, sending until
   [deadline]. [next conn] gives a connection's next request and an
   inline check of its response; [keep] says whether to store the
   response for a later check. Returns the samples and the window's
   length (the last answer may land after the deadline). *)
let drive srv ~deadline ~next ~keep =
  let t0 = Unix.gettimeofday () in
  let client conn () =
    let c = Serve.Client.connect srv.sock in
    let next = next conn in
    let rec loop acc =
      if Unix.gettimeofday () >= deadline then acc
      else
        let req, check = next () in
        Spans.set_request req.C.id;
        let r0 = Unix.gettimeofday () in
        match span "serve.roundtrip" (fun () -> Serve.Client.request c req.C.line) with
        | resp ->
            let lat = Unix.gettimeofday () -. r0 in
            loop
              ({ req; lat; ok = check resp; resp = (if keep then resp else "") }
              :: acc)
        | exception _ ->
            (* a lost connection ends this client; the request counts as
               failed, with the time it took to fail *)
            { req; lat = Unix.gettimeofday () -. r0; ok = false; resp = "" } :: acc
    in
    let samples = loop [] in
    Serve.Client.close c;
    (samples, Unix.gettimeofday ())
  in
  let results =
    List.map Domain.join (List.init conns (fun k -> Domain.spawn (client k)))
  in
  let t1 = List.fold_left (fun a (_, t) -> Float.max a t) t0 results in
  (List.concat_map fst results, t1 -. t0)

(* Set-up, done [setup_reps] times (median reported): spawn omegad,
   wait until a ping is answered, then [warmup]. All but the last
   server are stopped; the last is returned connected. *)
let timed_setup ~omegad ~warmup =
  let rec go i acc =
    let t0 = Unix.gettimeofday () in
    let srv = spawn ~omegad ~sock:(Printf.sprintf "omegad-%d.sock" i) in
    let c = connect_ready srv in
    ping c;
    warmup c;
    let dt = Unix.gettimeofday () -. t0 in
    if i + 1 < setup_reps then (
      stop srv c;
      go (i + 1) (dt :: acc))
    else (srv, c, Stats.median (dt :: acc))
  in
  go 0 []

let ms x = 1000. *. x

let ratio a b = if b = 0. then 0. else a /. b

(* End-to-end figures over a window's samples. [classes] groups samples
   into query classes for the geomean (one weight per class). *)
let end_to_end samples ~window ~classes ~rss ~setup_s =
  let lats = Array.of_list (List.map (fun s -> ms s.lat) samples) in
  Array.sort compare lats;
  let by_class = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let k = classes s in
      Hashtbl.replace by_class k
        (ms s.lat :: Option.value ~default:[] (Hashtbl.find_opt by_class k)))
    samples;
  let class_medians = Hashtbl.fold (fun _ l acc -> Stats.median l :: acc) by_class [] in
  ( [
      ("throughput_qps", float_of_int (List.length samples) /. window);
      ("query_ms_geomean", Stats.geomean class_medians);
      ("latency_p50_ms", Stats.percentile_sorted lats 50.);
      ("latency_p99_ms", Stats.percentile_sorted lats 99.);
      ("peak_rss_mb", rss);
      ("setup_s", setup_s);
    ],
    ("latency_p99_beyond", float_of_int (Stats.beyond_sorted lats 99.)) )

let server_layer before after =
  let d = metric_delta before after in
  let hits = d "omega_serve_cache_hits_total"
  and misses = d "omega_serve_cache_misses_total" in
  [
    ("serve.cache_hit_ratio", ratio hits (hits +. misses));
    ("serve.shed", d "omega_serve_shed_total");
    ("serve.partial", d "omega_serve_partial_total");
    ("serve.errors", d "omega_serve_errors_total");
    ("pool.busy_us", d "omega_pool_busy_us_total");
  ]

let median_ms l = ms (Stats.median l)

(* Durations of one span name among [spans], by request id. *)
let durations spans name =
  List.filter_map
    (fun s -> if s.Spans.name = name then Some (s.Spans.req, Spans.duration s) else None)
    spans

(* The measured window, as [slices] consecutive drives over the same
   per-connection streams. A traced run traces every other slice, so
   its traced and untraced throughputs come from interleaved time. *)
let measure srv ~seconds ~traced ~streams ~keep =
  let slices = if traced then 4 else 1 in
  let plain = ref ([], 0.) and spanned = ref ([], 0.) in
  for i = 0 to slices - 1 do
    let on = traced && i mod 2 = 1 in
    Spans.set_enabled on;
    let deadline = Unix.gettimeofday () +. (seconds /. float_of_int slices) in
    let samples, w = drive srv ~deadline ~next:(fun conn -> streams.(conn)) ~keep in
    let acc = if on then spanned else plain in
    acc := (samples @ fst !acc, w +. snd !acc)
  done;
  Spans.set_enabled false;
  let all = fst !plain @ fst !spanned and window = snd !plain +. snd !spanned in
  let overhead =
    if traced then
      let qps (l, w) = float_of_int (List.length l) /. w in
      100. *. ((qps !plain /. qps !spanned) -. 1.)
    else 0.
  in
  (all, window, overhead)

(* Per-class reference replays, made on first use. *)
let reference_cache () =
  let refs = Hashtbl.create 8 in
  fun cls ->
    match Hashtbl.find_opt refs cls.C.cname with
    | Some r -> r
    | None ->
        let r = reference cls in
        Hashtbl.add refs cls.C.cname r;
        r

type audit = {
  mutable check_ms : float list;  (** [Certcheck.check_line] per certificate *)
  mutable cert_bytes : float list;
  mutable unwitnessed : float;
}

let new_audit () = { check_ms = []; cert_bytes = []; unwitnessed = 0. }

(* A response passes when its bytes equal the in-process body and any
   certificate it carries is accepted by the independent checker. *)
let verify audit ref_of s =
  if not s.ok then s
  else
    let expected = with_id s.req.C.id (expected_body (ref_of s.req.C.cls) s.req) in
    let cert_ok =
      (not s.req.C.certify)
      ||
      match J.parse s.resp with
      | Ok o -> (
          match J.member "certificate" o with
          | Some cert ->
              let line = J.render cert in
              audit.cert_bytes <- float_of_int (String.length line) :: audit.cert_bytes;
              (match J.member "unwitnessed" cert with
              | Some (J.Num n) -> audit.unwitnessed <- audit.unwitnessed +. n
              | _ -> ());
              let ok, dt = Stats.time (fun () -> cert_accepted line) in
              audit.check_ms <- ms dt :: audit.check_ms;
              ok
          | None -> false)
      | Error _ -> false
    in
    { s with ok = String.equal s.resp expected && cert_ok }

let host_ref () = Stats.median (List.init 3 (fun _ -> Stats.host_ref_ms ()))

let errors samples = List.length (List.filter (fun s -> not s.ok) samples)

let run_mixed ~seed ~seconds ~traced ~omegad =
  (* Warm-up: one request of each class, splinter included, which also
     spawns the server's worker pool (domains start at first fan-out). *)
  let warmup c =
    List.iter (fun r -> ignore (Serve.Client.request c r.C.line)) (C.warmup_requests ())
  in
  let srv, c, setup_s = timed_setup ~omegad ~warmup in
  let host0 = host_ref () in
  let before = server_metrics c in
  let streams =
    Array.init conns (fun conn ->
        let g = C.mixed_stream ~seed ~conns ~conn in
        fun () -> (g (), fun _ -> true))
  in
  let samples, window, overhead = measure srv ~seconds ~traced ~streams ~keep:true in
  let after = server_metrics c in
  let rss = Stats.peak_rss_mb ~pid:srv.pid () in
  stop srv c;
  let roundtrips = Spans.all () in
  Spans.clear ();
  let audit = new_audit () in
  let samples = List.map (verify audit (reference_cache ())) samples in
  let is_splinter s = C.is_splinter s.req.C.cls in
  let e2e, beyond =
    end_to_end samples ~window ~classes:(fun s -> s.req.C.cls.C.cname) ~rss ~setup_s
  in
  let layers, spans, more_attempted, more_failed =
    if not traced then ([], [], 0, 0)
    else begin
      (* Service time: in-process replays of each class, mirroring the
         mix: three plain replays and one certified. A replay's spans
         carry request id [-(4 * class + k) - 1]. *)
      Spans.set_enabled true;
      List.iteri
        (fun ci cls ->
          List.iteri
            (fun k certify ->
              Spans.set_request (-((4 * ci) + k) - 1);
              ignore (replay (C.request_line ~id:0 cls ~n:cls.C.n_lo ~certify)))
            [ false; false; false; true ];
          Gc.full_major ())
        C.serve_classes;
      Spans.set_enabled false;
      let replays = Spans.all () in
      let host1 = host_ref () in
      let cls_of sp = List.nth C.serve_classes ((-sp.Spans.req - 1) / 4) in
      let replay_ms name pred =
        List.filter_map
          (fun sp ->
            if sp.Spans.name = name && pred (cls_of sp) then Some (Spans.duration sp)
            else None)
          replays
      in
      (* one certified replay per class, each class one request in eight *)
      let builds = replay_ms "certify.build" (fun _ -> true) in
      let rt pred =
        let ids = Hashtbl.create 256 in
        List.iter (fun s -> if pred s then Hashtbl.replace ids s.req.C.id ()) samples;
        median_ms
          (List.filter_map
             (fun (req, d) -> if Hashtbl.mem ids req then Some d else None)
             (durations roundtrips "serve.roundtrip"))
      in
      let rt_light = rt (fun s -> not (is_splinter s))
      and rt_splinter = rt is_splinter in
      let svc_light = median_ms (replay_ms "serve.replay" (fun c -> not (C.is_splinter c)))
      and svc_splinter = median_ms (replay_ms "serve.replay" C.is_splinter) in
      (* the library layers, from paper-batch's corpus in process *)
      let lr, library, library_spans = Paper.ladder ~seed in
      ( [
          ("serve.roundtrip_light_ms", rt_light);
          ("serve.roundtrip_splinter_ms", rt_splinter);
          ("serve.service_light_ms", svc_light);
          ("serve.service_splinter_ms", svc_splinter);
          ("serve.wait_light_ms", rt_light -. svc_light);
          ("serve.wait_splinter_ms", rt_splinter -. svc_splinter);
          ("serve.key_ms", median_ms (replay_ms "serve.key" (fun _ -> true)));
          ("certify.build_ms", ms (Stats.sum builds /. float_of_int (List.length builds)));
          ("certify.bytes", Stats.median audit.cert_bytes);
          ("certify.unwitnessed", audit.unwitnessed);
          ("certcheck.check_ms", Stats.median audit.check_ms);
          ("host.ref_ms", Stats.median [ host0; host1 ]);
          ("trace.overhead_pct", overhead);
          beyond;
        ]
        @ server_layer before after @ library,
        roundtrips @ replays @ library_spans,
        lr.Report.attempted,
        lr.Report.failed )
    end
  in
  let failed = errors samples + more_failed in
  let attempted = List.length samples + more_attempted in
  ( { Report.attempted; failed; metrics = [] },
    e2e @ (("error_rate", ratio (float_of_int failed) (float_of_int attempted)) :: layers),
    spans )

let hot_distinct = 64

(* The hit path in process: parse → fingerprint → cache key → lookup. *)
let hit_path cache line =
  match Serve.Proto.parse line with
  | Ok { Serve.Proto.op = Serve.Proto.Count req; _ } ->
      span "serve.hit" @@ fun () ->
      let q = span "preslang.parse" (fun () -> Preslang.parse_query req.query) in
      let key =
        span "serve.key" (fun () ->
            let fingerprint =
              Counting.Telemetry.fingerprint ~vars:q.Preslang.vars
                ~summand:q.Preslang.summand q.Preslang.formula
            in
            Serve.Cache.key ~fingerprint ~opts:(Serve.Proto.opts_of req)
              ~merge:req.merge ~certify:req.certify ~at:req.at)
      in
      (key, Serve.Cache.find cache key)
  | _ -> failwith ("not a count request: " ^ line)

let run_hot ~seed ~seconds ~traced ~omegad =
  (* Expected bodies first (in-process replays; not set-up: they are the
     check, not the server's work). *)
  let set = C.hot_set ~seed ~distinct:hot_distinct in
  let ref_of = reference_cache () in
  let expected =
    Array.map
      (fun (cls, n) ->
        expected_body (ref_of cls) (C.make_request ~id:0 cls ~n ~certify:false))
      set
  in
  let warmup c =
    Array.iteri
      (fun i (cls, n) ->
        ignore (Serve.Client.request c (C.make_request ~id:i cls ~n ~certify:false).C.line))
      set
  in
  let srv, c, setup_s = timed_setup ~omegad ~warmup in
  let host0 = host_ref () in
  let before = server_metrics c in
  let streams =
    Array.init conns (fun conn ->
        let g = C.hot_stream ~seed ~conns ~conn set in
        fun () ->
          let h, req = g () in
          (req, fun resp -> String.equal resp (with_id req.C.id expected.(h))))
  in
  let samples, window, overhead = measure srv ~seconds ~traced ~streams ~keep:false in
  let after = server_metrics c in
  let rss = Stats.peak_rss_mb ~pid:srv.pid () in
  stop srv c;
  let roundtrips = Spans.all () in
  Spans.clear ();
  let hot_index = Hashtbl.create 64 in
  Array.iteri (fun i (cls, n) -> Hashtbl.replace hot_index (cls.C.cname, n) i) set;
  let e2e, beyond =
    end_to_end samples ~window
      ~classes:(fun s -> Hashtbl.find hot_index (s.req.C.cls.C.cname, s.req.C.n))
      ~rss ~setup_s
  in
  let layers, spans =
    if not traced then ([], [])
    else begin
      (* The hit path in process, against a cache holding the same
         bodies: what the server does per request, without the socket. *)
      let cache = Serve.Cache.create ~capacity:256 () in
      Array.iteri
        (fun i (cls, n) ->
          let line = (C.make_request ~id:0 cls ~n ~certify:false).C.line in
          let key, _ = hit_path cache line in
          Serve.Cache.add cache key expected.(i))
        set;
      Spans.clear ();
      Spans.set_enabled true;
      for _ = 1 to 20 do
        Array.iter
          (fun (cls, n) ->
            ignore (hit_path cache (C.make_request ~id:0 cls ~n ~certify:false).C.line))
          set
      done;
      Spans.set_enabled false;
      let hits = Spans.all () in
      let host1 = host_ref () in
      let of_name name =
        List.filter_map
          (fun sp -> if sp.Spans.name = name then Some (Spans.duration sp) else None)
          hits
      in
      let rt = median_ms (List.map snd (durations roundtrips "serve.roundtrip")) in
      let svc = median_ms (of_name "serve.hit") in
      ( [
          ("serve.roundtrip_light_ms", rt);
          ("serve.service_light_ms", svc);
          ("serve.wait_light_ms", rt -. svc);
          ("serve.key_ms", median_ms (of_name "serve.key"));
          ("preslang.parse_ms", median_ms (of_name "preslang.parse"));
          ("host.ref_ms", Stats.median [ host0; host1 ]);
          ("trace.overhead_pct", overhead);
          beyond;
        ]
        @ server_layer before after,
        roundtrips @ hits )
    end
  in
  let failed = errors samples in
  let attempted = List.length samples in
  ( { Report.attempted; failed; metrics = [] },
    e2e @ (("error_rate", ratio (float_of_int failed) (float_of_int attempted)) :: layers),
    spans )
