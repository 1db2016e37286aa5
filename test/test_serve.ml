(* omegad server battery (the Serve library): protocol round-trips,
   per-request
   isolation (byte-identical replays, certificates included), admission
   shedding, the value cache (hits at new bindings, exact keys, weights),
   chaos under concurrent load, and crash-only drain on SIGTERM.

   Every test runs a real server (own Unix socket, handler domains) in
   this process and talks to it through Serve.Client. *)

module J = Obs.Ojson
module E = Counting.Engine
module Chaos = Counting.Chaos

let sock_seq = ref 0

let fresh_sock () =
  incr sock_seq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "omegad-test-%d-%d.sock" (Unix.getpid ()) !sock_seq)

let with_server ?(handlers = 2) ?(queue = 64) ?(cache = 256) ?cache_ttl_s f =
  let path = fresh_sock () in
  let cfg =
    {
      Serve.Server.socket_path = path;
      handlers;
      queue_limit = queue;
      cache_capacity = cache;
      cache_ttl_s;
      idle_sweep_s = None;
    }
  in
  let d = Domain.spawn (fun () -> Serve.Server.run ~config:cfg ()) in
  Fun.protect
    ~finally:(fun () ->
      (* Best-effort stop for tests that did not shut the server down
         themselves; join unconditionally. *)
      (try
         let c = Serve.Client.connect ~retries:20 path in
         ignore (Serve.Client.request c {|{"op":"shutdown"}|});
         Serve.Client.close c
       with _ -> ());
      Domain.join d)
    (fun () -> f path)

(* Responses are [{"id":…,BODY-minus-brace]; drop the id field so test
   expectations compare against the body the server rendered (ids in
   these tests are scalars, so the first comma ends the id field). *)
let strip_id resp =
  match String.index_opt resp ',' with
  | Some i -> "{" ^ String.sub resp (i + 1) (String.length resp - i - 1)
  | None -> resp

let member name resp =
  match J.parse resp with Ok o -> J.member name o | Error _ -> None

let status resp =
  match member "status" resp with Some (J.Str s) -> s | _ -> "<none>"

(* The serially-computed body for a complete query — exactly the
   rendering pipeline of Server.answer_body, under its own fresh
   request context, with chaos off. *)
let serial_complete_body ?(opts = E.default) ~at qtext =
  Chaos.set None;
  let q = Preslang.parse_query qtext in
  Serve.Ctx.with_request (fun () ->
      match
        Counting.Governor.sum ~opts ~vars:q.Preslang.vars q.Preslang.formula
          q.Preslang.summand
      with
      | Counting.Governor.Complete v ->
          Counting.Answer.complete_json ~at (Counting.Merge.merge_residues v)
      | Counting.Governor.Partial _ ->
          Alcotest.failf "serial run of %s was partial" qtext)

let serial_certified_body ?(opts = E.default) ~at qtext =
  Chaos.set None;
  let q = Preslang.parse_query qtext in
  Serve.Ctx.with_request (fun () ->
      let outcome, events, dropped =
        Counting.Certify.with_recording (fun () ->
            Counting.Governor.sum ~opts ~vars:q.Preslang.vars
              q.Preslang.formula q.Preslang.summand)
      in
      match outcome with
      | Counting.Governor.Complete v ->
          let v = Counting.Merge.merge_residues v in
          let body = Counting.Answer.complete_json ~at v in
          let cert =
            Counting.Certify.build ~opts ~vars:q.Preslang.vars
              ~summand:q.Preslang.summand ~query:qtext
              ~ats:(if at = [] then [] else [ at ])
              ~outcome:(Counting.Certify.Complete v) ~events ~dropped
              q.Preslang.formula
          in
          Printf.sprintf "%s,\"certificate\":%s}"
            (String.sub body 0 (String.length body - 1))
            (J.render cert)
      | Counting.Governor.Partial _ ->
          Alcotest.failf "serial certified run of %s was partial" qtext)

(* ------------------------------------------------------------------ *)
(* Fuzzing: [Proto.parse] answers every line with [Ok] or [Error]      *)

let proto_seeds =
  [|
    {|{"id":1,"query":"count { i : 1 <= i <= n }","at":{"n":10}}|};
    {|{"id":"x","op":"ping"}|};
    {|{"op":"metrics"}|};
    {|{"id":2,"query":"count { i : i <= n }","at":{"n":5,"m":-3},"strategy":"upper","backend":"gf","merge":false,"certify":true,"deadline_ms":100,"fuel":1000,"max_fanout":8,"max_clauses":4}|};
  |]

let proto_fields =
  [|
    "id"; "op"; "query"; "at"; "strategy"; "backend"; "merge"; "certify";
    "deadline_ms"; "fuel"; "max_fanout"; "max_clauses"; "plan";
  |]

let proto_values =
  [|
    {|"count"|}; {|"ping"|}; {|"shutdown"|}; {|"nope"|}; "true"; "null"; "-1";
    "0"; "1e400"; "-1e400"; "2.5"; "123456789012345678901234567890";
    {|{"n":123456789012345678901234567890}|}; {|{"n":1.5}|}; {|{"n":"7"}|};
    "[]"; "{}"; {|"count { i : 1 <= i <= n }"|};
  |]

let proto_fuzz_gen =
  let open QCheck.Gen in
  let seed = oneofa proto_seeds in
  let printable_char = map Char.chr (int_range 32 126) in
  let nested d = String.make d '[' ^ String.make d ']' in
  oneof
    [
      (* truncated lines *)
      (let* s = seed in
       let* k = int_bound (String.length s) in
       return (String.sub s 0 k));
      (* byte flips *)
      (let* s = seed in
       let* flips = list_size (int_range 1 3) (pair (int_bound 1000) printable_char) in
       let b = Bytes.of_string s in
       List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) flips;
       return (Bytes.to_string b));
      (* duplicate and ill-typed fields spliced in front *)
      (let* s = seed in
       let* extra =
         list_size (int_range 1 4)
           (pair (oneofa proto_fields) (oneofa proto_values))
       in
       return
         ("{"
         ^ String.concat "" (List.map (fun (f, v) -> Printf.sprintf "%S:%s," f v) extra)
         ^ String.sub s 1 (String.length s - 1)));
      (* nesting around Ojson.max_depth, in the id or in a binding *)
      (let* d = int_range (Obs.Ojson.max_depth - 8) (Obs.Ojson.max_depth + 64) in
       oneofl
         [
           Printf.sprintf {|{"id":%s,"op":"ping"}|} (nested d);
           Printf.sprintf {|{"query":"count { i : i <= n }","at":{"n":%s}}|} (nested d);
         ]);
      (* huge numbers where integers are expected *)
      (let* digits = string_size ~gen:(char_range '0' '9') (int_range 20 400) in
       let* field = oneofl [ "fuel"; "deadline_ms"; "max_fanout"; "id" ] in
       return
         (Printf.sprintf {|{"%s":%s,"query":"count { i : i <= n }","at":{"n":%s}}|}
            field digits digits));
      string_size ~gen:printable_char (int_bound 80);
    ]

let fuzz_proto_parse =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Proto.parse returns Ok or Error" ~count:1000
       (QCheck.make ~print:(fun s -> s) proto_fuzz_gen)
       (fun s -> match Serve.Proto.parse s with Ok _ | Error _ -> true))

(* ------------------------------------------------------------------ *)
(* Protocol round-trip                                                 *)

let test_protocol () =
  Chaos.set None;
  with_server (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          Alcotest.(check string)
            "ping" {|{"id":1,"status":"ok","pong":true}|}
            (Serve.Client.request c {|{"id":1,"op":"ping"}|});
          let r =
            Serve.Client.request c
              {|{"id":2,"query":"count { i, j : 1 <= i <= j <= n }","at":{"n":100}}|}
          in
          Alcotest.(check string)
            "complete answer matches serial pipeline"
            (serial_complete_body ~at:[ ("n", Zint.of_int 100) ]
               "count { i, j : 1 <= i <= j <= n }")
            (strip_id r);
          (match member "eval" r with
          | Some (J.Num f) -> Alcotest.(check int) "eval" 5050 (int_of_float f)
          | _ -> Alcotest.fail "complete answer carries no eval");
          (* string ids are echoed verbatim *)
          let r = Serve.Client.request c {|{"id":"abc","op":"ping"}|} in
          Alcotest.(check string)
            "string id" {|{"id":"abc","status":"ok","pong":true}|} r;
          (* malformed JSON → bad_request; the connection survives *)
          let r = Serve.Client.request c "{nope" in
          Alcotest.(check string) "bad json status" "error" (status r);
          (match member "class" r with
          | Some (J.Str "bad_request") -> ()
          | _ -> Alcotest.fail "bad json should be class bad_request");
          (* bad query text → typed parse_error from the handler *)
          let r =
            Serve.Client.request c {|{"id":5,"query":"count { i : 1 <= }"}|}
          in
          Alcotest.(check string) "parse error status" "error" (status r);
          (match member "class" r with
          | Some (J.Str "parse_error") -> ()
          | _ -> Alcotest.fail "bad query should be class parse_error");
          (* unbounded region → typed unbounded error *)
          let r =
            Serve.Client.request c {|{"id":6,"query":"count { i : i >= 1 }"}|}
          in
          (match member "class" r with
          | Some (J.Str "unbounded") -> ()
          | _ -> Alcotest.failf "unbounded query answered %s" r);
          (* unknown op *)
          let r = Serve.Client.request c {|{"id":7,"op":"frobnicate"}|} in
          Alcotest.(check string) "unknown op status" "error" (status r);
          (* budget-tripped query → sound typed partial; one fuel unit
             trips before the first clause is summed, so the case does
             not depend on how many steps the engine charges *)
          let r =
            Serve.Client.request c
              {|{"id":8,"query":"count { i, j : 1 <= i and j <= n and 2*i <= 3*j }","at":{"n":100},"fuel":1}|}
          in
          Alcotest.(check string) "fuel partial" "partial" (status r);
          (match member "reason" r with
          | Some (J.Str "fuel") -> ()
          | _ -> Alcotest.fail "partial should carry reason fuel");
          (* metrics verb serves the OpenMetrics registry inline *)
          let r = Serve.Client.request c {|{"id":9,"op":"metrics"}|} in
          (match member "metrics" r with
          | Some (J.Str text) ->
              Alcotest.(check bool)
                "metrics text has serve.requests" true
                (let re = "omega_serve_requests_total" in
                 let rec has i =
                   i + String.length re <= String.length text
                   && (String.sub text i (String.length re) = re || has (i + 1))
                 in
                 has 0)
          | _ -> Alcotest.fail "metrics verb returned no text")))

(* ------------------------------------------------------------------ *)
(* Exact numbers on the wire                                           *)

(* Number literals a double cannot hold survive the round trip: an id
   is echoed byte for byte, and an integer "at" binding of any size
   decodes exactly, like its string form and like omcount's --at. *)
let test_exact_numbers () =
  Chaos.set None;
  with_server (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          List.iter
            (fun id ->
              Alcotest.(check string)
                ("ping id " ^ id)
                (Printf.sprintf {|{"id":%s,"status":"ok","pong":true}|} id)
                (Serve.Client.request c
                   (Printf.sprintf {|{"id":%s,"op":"ping"}|} id));
              let r =
                Serve.Client.request c
                  (Printf.sprintf {|{"id":%s,"op":"frobnicate"}|} id)
              in
              Alcotest.(check string)
                ("error id " ^ id)
                (Printf.sprintf {|{"id":%s,|} id)
                (String.sub r 0 (String.length id + 7)))
            [
              "9007199254740993";
              "123456789012345678901234567890";
              "1e400";
              "1e23";
              "9007199254740993.0";
            ];
          (* an id outside the JSON number grammar is a bad request
             answered with valid JSON, never echoed *)
          List.iter
            (fun id ->
              let r =
                Serve.Client.request c
                  (Printf.sprintf {|{"id":%s,"op":"ping"}|} id)
              in
              match (J.parse r, member "class" r) with
              | Ok _, Some (J.Str "bad_request") -> ()
              | _ -> Alcotest.failf "id %s answered %s" id r)
            [ "+1e400"; "00000000000000000001e400" ];
          let q = "count { i, j : 1 <= i <= j <= n }" in
          let big = "123456789012345678901" in
          let expected =
            serial_complete_body ~at:[ ("n", Zint.of_string big) ] q
          in
          let n = Zint.of_string big in
          let eval = Zint.(to_string (tdiv (mul n (add n one)) (of_int 2))) in
          Alcotest.(check bool)
            "exact eval" true
            (let tail = Printf.sprintf {|"eval":%s}|} eval in
             let lt = String.length tail and le = String.length expected in
             le >= lt && String.sub expected (le - lt) lt = tail);
          List.iter
            (fun binding ->
              Alcotest.(check string)
                ("at " ^ binding) expected
                (strip_id
                   (Serve.Client.request c
                      (Printf.sprintf {|{"id":1,"query":"%s","at":{"n":%s}}|} q
                         binding))))
            [ big; "\"" ^ big ^ "\"" ];
          (* the type check stays: a non-integer number is a bad_request *)
          List.iter
            (fun binding ->
              let r =
                Serve.Client.request c
                  (Printf.sprintf {|{"id":2,"query":"%s","at":{"n":%s}}|} q
                     binding)
              in
              match member "class" r with
              | Some (J.Str "bad_request") -> ()
              | _ -> Alcotest.failf "at n=%s answered %s" binding r)
            [
              "1.5";
              "1e400";
              "-1e400";
              "1e23";
              "9007199254740993.0";
              "4503599627370496.5";
            ]))

(* An "at" number binds only when its digits denote exactly an
   integer: a point or exponent may spell one, but a fraction a double
   would round away (or a value it would flush to zero) is refused. *)
let test_exact_at_literals () =
  Chaos.set None;
  with_server (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let q = "count { i : 1 <= i <= n }" in
          let request binding =
            Serve.Client.request c
              (Printf.sprintf {|{"id":1,"query":"%s","at":{"n":%s}}|} q
                 binding)
          in
          List.iter
            (fun binding ->
              match member "class" (request binding) with
              | Some (J.Str "bad_request") -> ()
              | _ -> Alcotest.failf "at n=%s was bound" binding)
            [
              "1.00000000000000000001";
              "0.99999999999999999999";
              "100.0000000000000000001";
              "1e-400";
              "1.5e0";
            ];
          List.iter
            (fun (binding, n) ->
              Alcotest.(check string)
                ("at n=" ^ binding)
                (serial_complete_body ~at:[ ("n", Zint.of_int n) ] q)
                (strip_id (request binding)))
            [
              ("1.0", 1);
              ("1e2", 100);
              ("1.000000000000000000000", 1);
              ("2500e-2", 25);
              ("0.5e1", 5);
              ("-0.0", 0);
            ]))

(* ------------------------------------------------------------------ *)
(* Wire compatibility: retired and default-valued fields               *)

(* Clients written against older servers may still send ["plan"] (now
   ignored, as every unknown field is, so even a value older servers
   rejected must be accepted) or spell out the default
   ["backend":"auto"]; either must leave the body untouched. TTL -1
   makes every request recompute, so equal bodies are not cache hits. *)
let test_legacy_fields () =
  Chaos.set None;
  with_server ~cache:1 ~cache_ttl_s:(-1.) (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          List.iteri
            (fun i (q, certify) ->
              let line extra =
                Printf.sprintf
                  {|{"id":%d,"query":"%s","at":{"n":40},"certify":%b%s}|} i q
                  certify extra
              in
              let base = strip_id (Serve.Client.request c (line "")) in
              Alcotest.(check string) "base complete" "complete" (status base);
              List.iter
                (fun extra ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s%s" q extra)
                    base
                    (strip_id (Serve.Client.request c (line extra))))
                [
                  {|,"plan":"static"|};
                  {|,"plan":"adaptive"|};
                  {|,"plan":"bogus"|};
                  {|,"backend":"auto"|};
                ])
            [
              ("count { i, j : 1 <= i <= j <= n }", false);
              ("count { i, j : 1 <= i and j <= n and 2*i <= 3*j }", true);
              ("count { i, j : 0 <= i and 0 <= j and 3*i + 5*j <= 60 }", true);
            ]))

(* ------------------------------------------------------------------ *)
(* Replay isolation: 100 interleaved repeats are byte-identical        *)

let test_replay_interleaved () =
  Chaos.set None;
  (* TTL -1 forces every lookup to miss: each repeat recomputes from a
     fresh per-request context, which is exactly what the byte-identity
     claim is about (certificates and fingerprints included). *)
  with_server ~handlers:2 ~cache:1 ~cache_ttl_s:(-1.) (fun path ->
      let q1 = "count { i, j : 1 <= i <= j <= n }" in
      let q2 = "count { i, j : 1 <= i and j <= n and 2*i <= 3*j }" in
      let expected1 =
        serial_certified_body ~at:[ ("n", Zint.of_int 40) ] q1
      in
      let expected2 =
        serial_certified_body ~at:[ ("n", Zint.of_int 40) ] q2
      in
      let line q id =
        Printf.sprintf
          {|{"id":%d,"query":"%s","at":{"n":40},"certify":true}|} id q
      in
      let run_client q expected =
        Domain.spawn (fun () ->
            let c = Serve.Client.connect ~retries:100 path in
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                let bad = ref 0 in
                for i = 1 to 100 do
                  let r = Serve.Client.request c (line q i) in
                  if strip_id r <> expected then incr bad
                done;
                !bad))
      in
      let d1 = run_client q1 expected1 in
      let d2 = run_client q2 expected2 in
      let bad1 = Domain.join d1 and bad2 = Domain.join d2 in
      Alcotest.(check int) "q1: all 100 replays byte-identical" 0 bad1;
      Alcotest.(check int) "q2: all 100 replays byte-identical" 0 bad2)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

(* Every bound but the last mentions a summation variable, so no floor
   form shortcuts its residue splinters: it runs until its deadline. *)
let slow_query =
  "count { i, j, k : 1 <= i and 97*i <= 89*j and 53*j <= 47*k and k <= n }"

let test_shed () =
  Chaos.set None;
  with_server ~handlers:1 ~queue:2 ~cache:1 ~cache_ttl_s:(-1.) (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          (* Hold the single handler for two seconds, then pipeline a
             burst an order of magnitude over the bound: the burst
             arrives while the handler is busy, however fast its own
             queries are, so the excess must shed. *)
          Serve.Client.send c
            (Printf.sprintf
               {|{"id":0,"query":"%s","at":{"n":50},"deadline_ms":2000}|}
               slow_query);
          let n = 30 in
          for i = 1 to n do
            Serve.Client.send c
              (Printf.sprintf
                 {|{"id":%d,"query":"count { i, j : 1 <= i and j <= n and 97*i <= 101*j }","at":{"n":30}}|}
                 i)
          done;
          let shed = ref 0 and answered = ref 0 and held = ref None in
          for _ = 0 to n do
            match Serve.Client.recv c with
            | None -> Alcotest.fail "connection died mid-burst"
            | Some r when member "id" r = Some (J.Num 0.) -> held := Some (status r)
            | Some r -> (
                match status r with
                | "shed" ->
                    incr shed;
                    (match (member "queue_depth" r, member "limit" r) with
                    | Some (J.Num _), Some (J.Num l) ->
                        Alcotest.(check int)
                          "shed reports the configured limit" 2
                          (int_of_float l)
                    | _ -> Alcotest.fail "shed body lacks depth/limit")
                | "complete" -> incr answered
                | s -> Alcotest.failf "unexpected status %s in burst" s)
          done;
          Alcotest.(check (option string))
            "the held request hit its deadline" (Some "partial") !held;
          Alcotest.(check bool)
            (Printf.sprintf "some of %d were shed (%d)" n !shed)
            true (!shed > 0);
          Alcotest.(check bool)
            (Printf.sprintf "some of %d were answered (%d)" n !answered)
            true
            (!answered > 0)))

(* A line that never ends is cut off at the bound: one typed
   bad_request, the connection closed, and the server still serving
   every other connection. *)
let test_long_line () =
  with_server ~handlers:1 (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX path);
              let payload = Bytes.make (2 * Serve.Server.max_line_bytes) 'x' in
              let rec push off =
                if off < Bytes.length payload then
                  match Unix.write fd payload off (Bytes.length payload - off) with
                  | n -> push (off + n)
                  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
                    ->
                      ()
              in
              push 0;
              let ic = Unix.in_channel_of_descr fd in
              let r = input_line ic in
              Alcotest.(check string) "status" "error" (status r);
              Alcotest.(check (option string))
                "class" (Some "bad_request")
                (match member "class" r with Some (J.Str s) -> Some s | _ -> None);
              Alcotest.(check bool)
                "connection closed after the error" true
                (match input_line ic with
                | _ -> false
                | exception (End_of_file | Sys_error _) -> true));
          Alcotest.(check string)
            "another connection is still answered" "ok"
            (status (Serve.Client.request c {|{"id":1,"op":"ping"}|}))))

(* ------------------------------------------------------------------ *)
(* Value cache: hits, metrics, eviction                                *)

let metric_value text name =
  (* OpenMetrics text: find "name value" at start of a line. *)
  let lines = String.split_on_char '\n' text in
  List.find_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = name ->
          int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
      | _ -> None)
    lines

let get_metrics c =
  match member "metrics" (Serve.Client.request c {|{"op":"metrics"}|}) with
  | Some (J.Str text) -> text
  | _ -> Alcotest.fail "metrics verb failed"

let test_cache () =
  Chaos.set None;
  with_server ~handlers:2 ~cache:2 (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let m0 = get_metrics c in
          let hits0 =
            Option.value ~default:0
              (metric_value m0 "omega_serve_cache_hits_total")
          in
          let line id k =
            Printf.sprintf
              {|{"id":%d,"query":"count { i : 1 <= i <= %d*n }","at":{"n":7}}|}
              id k
          in
          let r1 = Serve.Client.request c (line 1 3) in
          let r2 = Serve.Client.request c (line 2 3) in
          Alcotest.(check string)
            "cache hit body is byte-identical" (strip_id r1) (strip_id r2);
          let m1 = get_metrics c in
          let hits1 =
            Option.value ~default:0
              (metric_value m1 "omega_serve_cache_hits_total")
          in
          Alcotest.(check bool) "hit counted" true (hits1 > hits0);
          (* distinct option sets must not share entries *)
          let r3 =
            Serve.Client.request c
              {|{"id":3,"query":"count { i : 1 <= i <= 3*n }","at":{"n":7},"merge":false}|}
          in
          ignore r3;
          (* eviction keeps the entry gauge at the capacity bound *)
          for k = 1 to 8 do
            ignore (Serve.Client.request c (line (10 + k) k))
          done;
          let m2 = get_metrics c in
          (match metric_value m2 "omega_serve_cache_entries" with
          | Some entries ->
              Alcotest.(check bool)
                (Printf.sprintf "entries %d <= capacity 2" entries)
                true (entries <= 2)
          | None -> Alcotest.fail "no cache_entries gauge");
          match metric_value m2 "omega_serve_cache_evictions_total" with
          | Some ev -> Alcotest.(check bool) "evictions counted" true (ev > 0)
          | None -> Alcotest.fail "no eviction counter"));
  (* Soak: 4 connections x 2500 requests cycling 40 distinct queries
     through a capacity-16 cache. Every request must complete, and
     eviction must keep the entry gauge at the bound. The registry is
     process-global, so evictions are counted from here. *)
  with_server ~handlers:4 ~cache:16 (fun path ->
      let metrics () =
        let c = Serve.Client.connect ~retries:100 path in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () -> get_metrics c)
      in
      let metric text name = Option.value ~default:0 (metric_value text name) in
      let evictions0 = metric (metrics ()) "omega_serve_cache_evictions_total" in
      let distinct = 40 and per_conn = 2500 in
      let conn k =
        Domain.spawn (fun () ->
            let c = Serve.Client.connect ~retries:100 path in
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                let incomplete = ref 0 in
                for i = 0 to per_conn - 1 do
                  let r =
                    Serve.Client.request c
                      (Printf.sprintf
                         {|{"id":%d,"query":"count { i : 1 <= i <= %d*n }","at":{"n":7}}|}
                         i
                         (((i + k) mod distinct) + 1))
                  in
                  if status r <> "complete" then incr incomplete
                done;
                !incomplete))
      in
      let incomplete =
        List.fold_left ( + ) 0 (List.map Domain.join (List.init 4 conn))
      in
      Alcotest.(check int) "every soak response complete" 0 incomplete;
      let m = metrics () in
      let entries = metric m "omega_serve_cache_entries" in
      Alcotest.(check bool)
        (Printf.sprintf "soak entries %d <= capacity 16" entries)
        true (entries <= 16);
      Alcotest.(check bool) "soak evicted" true
        (metric m "omega_serve_cache_evictions_total" > evictions0))

(* ------------------------------------------------------------------ *)
(* Chaos under concurrent load                                         *)

let chaos_queries =
  [|
    "count { i, j : 1 <= i <= j <= n }";
    "count { i, j : 1 <= i and j <= n and 2*i <= 3*j }";
    "count { i, j : 1 <= i and j <= n and 3*i <= 5*j }";
    "sum { i : 1 <= i <= n } i^2";
    "count { i, j, k : 1 <= i <= j <= k <= n }";
    "count { i : 1 <= i <= n and 2*i <= n }";
  |]

let test_chaos_under_load () =
  Chaos.set None;
  let n_bind = [ ("n", Zint.of_int 30) ] in
  let expected =
    Array.map (fun q -> serial_complete_body ~at:n_bind q) chaos_queries
  in
  let truths =
    Array.map
      (fun body ->
        match member "eval" body with
        | Some (J.Num f) -> int_of_float f
        | _ -> Alcotest.fail "expected body has no eval")
      expected
  in
  (* TTL -1: every request must run the engine, so every request is
     exposed to injection — a cache would absorb the load after one
     complete per query. *)
  with_server ~handlers:3 ~queue:512 ~cache:1 ~cache_ttl_s:(-1.)
    (fun path ->
      let before = Chaos.injections () in
      Chaos.set ~rate:10 (Some 1729);
      let clients = 4 and per_client = 75 in
      let run k =
        Domain.spawn (fun () ->
            let c = Serve.Client.connect ~retries:100 path in
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                let results = ref [] in
                for i = 0 to per_client - 1 do
                  let qi = (i + k) mod Array.length chaos_queries in
                  let r =
                    Serve.Client.request c
                      (Printf.sprintf
                         {|{"id":%d,"query":"%s","at":{"n":30}}|}
                         ((k * 1000) + i)
                         chaos_queries.(qi))
                  in
                  results := (qi, r) :: !results
                done;
                !results))
      in
      let domains = List.init clients run in
      let results = List.concat_map Domain.join domains in
      Chaos.set None;
      let injected = Chaos.injections () - before in
      Alcotest.(check bool)
        (Printf.sprintf "chaos injected >= 200 faults (got %d)" injected)
        true (injected >= 200);
      Alcotest.(check int)
        "every request got a response"
        (clients * per_client)
        (List.length results);
      let completes = ref 0 and partials = ref 0 in
      List.iter
        (fun (qi, r) ->
          match status r with
          | "complete" ->
              incr completes;
              Alcotest.(check string)
                "non-faulted response matches the serial body" expected.(qi)
                (strip_id r)
          | "partial" ->
              incr partials;
              (match member "reason" r with
              | Some (J.Str _) -> ()
              | _ -> Alcotest.fail "partial without reason");
              (* Sound bracketing: lower <= truth <= upper (each bound
                 checked when numerically present). *)
              (match member "bounds" r with
              | Some (J.Obj kvs) ->
                  (match List.assoc_opt "lower" kvs with
                  | Some (J.Num l) ->
                      if int_of_float l > truths.(qi) then
                        Alcotest.failf "unsound lower %d > truth %d on %s"
                          (int_of_float l) truths.(qi) chaos_queries.(qi)
                  | _ -> ());
                  (match List.assoc_opt "upper" kvs with
                  | Some (J.Num u) ->
                      if int_of_float u < truths.(qi) then
                        Alcotest.failf "unsound upper %d < truth %d on %s"
                          (int_of_float u) truths.(qi) chaos_queries.(qi)
                  | _ -> ())
              | _ -> Alcotest.fail "partial without bounds")
          | s ->
              Alcotest.failf "chaos must degrade to complete/partial, got %s: %s"
                s r)
        results;
      Alcotest.(check bool)
        (Printf.sprintf "faults degraded to partials (%d complete, %d partial)"
           !completes !partials)
        true (!partials > 0);
      (* The server itself never died, and with chaos off again every
         query completes byte-identically to the serial pipeline. *)
      let c = Serve.Client.connect ~retries:20 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let r = Serve.Client.request c {|{"op":"ping"}|} in
          Alcotest.(check string) "server alive after the battery" "ok"
            (status r);
          Array.iteri
            (fun qi q ->
              let r =
                Serve.Client.request c
                  (Printf.sprintf {|{"id":%d,"query":"%s","at":{"n":30}}|}
                     (9000 + qi) q)
              in
              Alcotest.(check string)
                "post-chaos response matches the serial body" expected.(qi)
                (strip_id r))
            chaos_queries))

(* ------------------------------------------------------------------ *)
(* One domain per core: concurrent handlers answer as the runner does  *)

(* The body [Counting.Query.run] renders for a complete request, the
   certificate spliced in as the server does: a cold run, parsed and
   counted under a fresh request context. *)
let query_run_body ?(merge = true) ~certify ~at qtext =
  Serve.Ctx.with_request (fun () ->
      let q = Preslang.parse_query qtext in
      let r =
        Counting.Query.run ~label:"test" ~opts:E.default
          ~budget:Counting.Governor.unlimited ~merge ~certify
          ~instr:false ~at ~source:qtext ~vars:q.Preslang.vars
          ~summand:q.Preslang.summand q.Preslang.formula
      in
      match (r.outcome, r.certificate) with
      | Counting.Governor.Complete v, cert -> (
          let body = Counting.Answer.complete_json ~at v in
          match cert with
          | None -> body
          | Some cert ->
              Printf.sprintf "%s,\"certificate\":%s}"
                (String.sub body 0 (String.length body - 1))
                (J.render cert))
      | Counting.Governor.Partial _, _ ->
          Alcotest.failf "Query.run of %s was partial" qtext)

(* Two concurrent splinter requests (one certified), each on its own
   handler domain, answer with the runner's bodies, byte for byte. *)
let test_concurrent_handlers () =
  Chaos.set None;
  let q = "count { i, j : 1 <= i and j <= n and 97*i <= 101*j }" in
  let at = [ ("n", Zint.of_int 100) ] in
  let expected =
    List.map (fun certify -> query_run_body ~certify ~at q) [ false; true ]
  in
  with_server ~handlers:2 (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let client certify =
            Domain.spawn (fun () ->
                let c = Serve.Client.connect ~retries:100 path in
                Fun.protect
                  ~finally:(fun () -> Serve.Client.close c)
                  (fun () ->
                    Serve.Client.request c
                      (Printf.sprintf
                         {|{"id":1,"query":"%s","at":{"n":100},"certify":%b}|}
                         q certify)))
          in
          let bodies =
            List.map
              (fun d -> strip_id (Domain.join d))
              (List.map client [ false; true ])
          in
          List.iter2
            (fun name (want, got) -> Alcotest.(check string) name want got)
            [ "plain body = Query.run"; "certified body = Query.run" ]
            (List.combine expected bodies)))

(* ------------------------------------------------------------------ *)
(* Value tier: one symbolic answer serves every binding                *)

let metric_or_zero c name =
  Option.value ~default:0 (metric_value (get_metrics c) name)

let hits c = metric_or_zero c "omega_serve_cache_hits_total"

let request_line ?(extra = []) ~id ~at qtext =
  J.render
    (J.Obj
       ([
          ("id", J.int id);
          ("query", J.Str qtext);
          ("at", J.Obj (List.map (fun (k, v) -> (k, J.int v)) at));
        ]
       @ extra))

let zat = List.map (fun (k, v) -> (k, Zint.of_int v))

let certificate_accepted resp =
  match member "certificate" resp with
  | Some cert -> (
      match Certcheck.check_line (J.render cert) with
      | Certcheck.Accepted _, (Certcheck.Accepted _ | Certcheck.Overflowed) ->
          true
      | _ -> false)
  | None -> false

(* Per query: a plain miss fills the value tier; a plain request at a
   new binding is a hit whose body is a cold run's, byte for byte; a
   certified request after that still runs (no hit) and its body is
   the cold certified body, with a certificate omcheck accepts. The
   two-parameter query gives its hit binding in both key orders. *)
let test_value_tier_bindings () =
  Chaos.set None;
  let cases =
    [
      ("count { i, j : 1 <= i <= j <= n }", [ ("n", 40) ], [ [ ("n", 977) ] ],
        [ ("n", 13) ]);
      ( "count { i, j : 1 <= i and j <= n and 2*i <= 3*j }",
        [ ("n", 40) ],
        [ [ ("n", 1001) ] ],
        [ ("n", 17) ] );
      ( "count { i, j : 1 <= i and j <= n and 97*i <= 101*j }",
        [ ("n", 100) ],
        [ [ ("n", 250) ] ],
        [ ("n", 37) ] );
      ( "count { i, j : 1 <= i <= n and 1 <= j <= m and 2*i <= 3*j }",
        [ ("n", 5); ("m", 3) ],
        [ [ ("n", 11); ("m", 7) ]; [ ("m", 7); ("n", 11) ] ],
        [ ("n", 9); ("m", 3) ] );
    ]
  in
  with_server (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          List.iter
            (fun (q, fill, hit_ats, cert_at) ->
              let r = Serve.Client.request c (request_line ~id:1 ~at:fill q) in
              Alcotest.(check string) (q ^ ": miss") "complete" (status r);
              List.iter
                (fun at ->
                  let h0 = hits c in
                  let r = Serve.Client.request c (request_line ~id:2 ~at q) in
                  Alcotest.(check int) (q ^ ": plain hit counted") 1 (hits c - h0);
                  Alcotest.(check string)
                    (q ^ ": hit = cold Query.run")
                    (query_run_body ~certify:false ~at:(zat at) q)
                    (strip_id r))
                hit_ats;
              let h0 = hits c in
              let r =
                Serve.Client.request c
                  (request_line ~id:3 ~at:cert_at
                     ~extra:[ ("certify", J.Bool true) ]
                     q)
              in
              Alcotest.(check int) (q ^ ": certified is no hit") 0 (hits c - h0);
              Alcotest.(check string)
                (q ^ ": certified = cold certified Query.run")
                (query_run_body ~certify:true ~at:(zat cert_at) q)
                (strip_id r);
              Alcotest.(check bool)
                (q ^ ": certificate accepted") true (certificate_accepted r))
            cases))

(* [sum { i : 1 <= i <= n } 2*i^1 + 3*i^2 + … + 21*i^20 + c*i^21]: the
   fingerprint's bounded hash stops before the last term, so c = 1 and
   c = 2 share a fingerprint, and a fingerprint-keyed cache answered
   the second with the first's value. *)
let colliding c =
  let terms = List.init 20 (fun k -> Printf.sprintf "%d*i^%d" (k + 2) (k + 1)) in
  Printf.sprintf "sum { i : 1 <= i <= n } %s + %d*i^21"
    (String.concat " + " terms) c

let test_value_tier_exact_keys () =
  Chaos.set None;
  let fingerprint q =
    let q = Preslang.parse_query q in
    Counting.Telemetry.fingerprint ~vars:q.Preslang.vars
      ~summand:q.Preslang.summand q.Preslang.formula
  in
  Alcotest.(check string)
    "the two queries collide on the fingerprint"
    (fingerprint (colliding 1))
    (fingerprint (colliding 2));
  let expected = [ (1, "44040423"); (2, "46137576") ] in
  with_server (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          List.iter
            (fun order ->
              List.iter
                (fun k ->
                  let r =
                    Serve.Client.request c
                      (request_line ~id:k ~at:[ ("n", 2) ] (colliding k))
                  in
                  match member "eval" r with
                  | Some (J.Num f) ->
                      Alcotest.(check string)
                        (Printf.sprintf "c = %d answers its own eval" k)
                        (List.assoc k expected)
                        (Printf.sprintf "%.0f" f)
                  | _ -> Alcotest.failf "no eval in %s" r)
                order)
            [ [ 1; 2 ]; [ 2; 1 ] ]))

(* Wildcard names come from the request's own counter, parse included:
   repeated [mod] requests share one entry, and repeated certified
   [floor]/[mod] requests are byte-identical to a cold run even after
   other wildcard-minting traffic on the same handler. *)
let test_parse_in_request_context () =
  Chaos.set None;
  let modq = "count { i : 1 <= i <= n and i mod 3 = 0 }" in
  let floorq = "count { i : 1 <= i <= n and floor(i/4) >= 2 and i mod 3 = 0 }" in
  let cert_body = query_run_body ~certify:true ~at:(zat [ ("n", 10) ]) floorq in
  with_server ~handlers:1 (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let m0 = metric_or_zero c "omega_serve_cache_misses_total" in
          let h0 = hits c in
          let bodies =
            List.init 3 (fun i ->
                strip_id
                  (Serve.Client.request c
                     (request_line ~id:i ~at:[ ("n", 10) ] modq)))
          in
          List.iter
            (Alcotest.(check string) "mod repeat identical" (List.hd bodies))
            bodies;
          Alcotest.(check int) "one miss" 1
            (metric_or_zero c "omega_serve_cache_misses_total" - m0);
          Alcotest.(check int) "two hits" 2 (hits c - h0);
          Alcotest.(check int) "one entry" 1
            (metric_or_zero c "omega_serve_cache_entries");
          for i = 1 to 2 do
            let r =
              Serve.Client.request c
                (request_line ~id:i ~at:[ ("n", 10) ]
                   ~extra:[ ("certify", J.Bool true) ]
                   floorq)
            in
            Alcotest.(check string)
              (Printf.sprintf "certified floor/mod #%d = cold run" i)
              cert_body (strip_id r)
          done))

(* The serve-mixed request classes (perfbench's corpus), one request
   each: their merged values fit the default capacity together. *)
let serve_mixed_classes =
  [
    ("count { i, j : 1 <= i <= j <= n }", []);
    ("sum { i : 1 <= i <= n } i^2", []);
    ("count { i, j : 1 <= i and j <= n and 2*i <= 3*j }", []);
    ("count { i, j, k : 1 <= i <= j <= k <= n }", []);
    ("count { i : 1 <= i <= n and 3*i <= 2*n }", []);
    ( "count { i, j : 1 <= i and j <= n and 2*i <= 3*j }",
      [ ("strategy", J.Str "symbolic") ] );
    ("count { i, j : 1 <= i and j <= n and 3*i <= 5*j }", []);
    ("count { i, j : 1 <= i and j <= n and 97*i <= 101*j }", []);
  ]

let test_cache_weights () =
  (* the cache itself: weights, the bound, oversize entries *)
  let cache = Serve.Cache.create ~capacity:10 ~weight:String.length () in
  Serve.Cache.add cache "a" "aaaa";
  Serve.Cache.add cache "b" "bbbb";
  Serve.Cache.add cache "c" "";
  Alcotest.(check int) "an empty entry weighs 1" 9 (Serve.Cache.weight cache);
  Serve.Cache.add cache "d" "ddddddddddd";
  Alcotest.(check int) "an oversize entry is not stored" 3
    (Serve.Cache.length cache);
  Alcotest.(check (option string)) "and is absent" None
    (Serve.Cache.find cache "d");
  ignore (Serve.Cache.find cache "a");
  Serve.Cache.add cache "e" "ee";
  Alcotest.(check (option string)) "LRU entry evicted by weight" None
    (Serve.Cache.find cache "b");
  Alcotest.(check int) "weight back within the bound" 7
    (Serve.Cache.weight cache);
  Chaos.set None;
  let warm c classes =
    List.iteri
      (fun i (q, extra) ->
        Alcotest.(check string) q "complete"
          (status
             (Serve.Client.request c (request_line ~id:i ~at:[ ("n", 5) ] ~extra q))))
      classes
  in
  let state c ev0 =
    ( metric_or_zero c "omega_serve_cache_entries",
      metric_or_zero c "omega_serve_cache_weight",
      metric_or_zero c "omega_serve_cache_evictions_total" - ev0 )
  in
  let with_client ?cache f =
    with_server ?cache (fun path ->
        let c = Serve.Client.connect ~retries:100 path in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            f c (metric_or_zero c "omega_serve_cache_evictions_total")))
  in
  (* at the default capacity the whole serve-mixed warm-up stays *)
  with_client (fun c ev0 ->
      warm c serve_mixed_classes;
      let entries, weight, evictions = state c ev0 in
      Alcotest.(check int) "all classes stored" 8 entries;
      Alcotest.(check int) "nothing evicted" 0 evictions;
      Alcotest.(check bool)
        (Printf.sprintf "weight %d fits 256" weight)
        true (weight <= 256));
  (* an unmerged splinter value heavier than the bound is served but
     neither stored nor allowed to evict the lighter entries *)
  let light = List.filteri (fun i _ -> i < 7) serve_mixed_classes in
  let splinter = fst (List.nth serve_mixed_classes 7) in
  with_client ~cache:64 (fun c ev0 ->
      warm c light;
      let before = state c ev0 in
      let r =
        Serve.Client.request c
          (request_line ~id:9 ~at:[ ("n", 100) ]
             ~extra:[ ("merge", J.Bool false) ]
             splinter)
      in
      Alcotest.(check string) "merge:false splinter = cold run"
        (query_run_body ~merge:false ~certify:false ~at:(zat [ ("n", 100) ])
           splinter)
        (strip_id r);
      Alcotest.(check (triple int int int))
        "heavier than the bound: not stored, nothing evicted" before
        (state c ev0))

(* ------------------------------------------------------------------ *)
(* Crash-only drain: SIGTERM mid-flight                                *)

let test_sigterm_drain () =
  Chaos.set None;
  with_server ~handlers:1 (fun path ->
      let c = Serve.Client.connect ~retries:100 path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          (* One pathological in-flight query (deadline as a hang
             safety net) plus two queued behind it on a single handler. *)
          for i = 1 to 3 do
            Serve.Client.send c
              (Printf.sprintf
                 {|{"id":%d,"query":"%s","at":{"n":50},"deadline_ms":30000}|}
                 i slow_query)
          done;
          Unix.sleepf 0.3;
          Unix.kill (Unix.getpid ()) Sys.sigterm;
          let statuses = ref [] in
          for _ = 1 to 3 do
            match Serve.Client.recv c with
            | Some r -> statuses := status r :: !statuses
            | None -> ()
          done;
          Alcotest.(check int)
            "all three requests were answered during drain" 3
            (List.length !statuses);
          (* The in-flight query must have been cancelled into a sound
             partial; queued ones are either cancelled partials too or
             typed unavailable errors, never hangs or crashes. *)
          List.iter
            (fun s ->
              if not (List.mem s [ "partial"; "error"; "complete" ]) then
                Alcotest.failf "unexpected drain status %s" s)
            !statuses;
          Alcotest.(check bool)
            "at least one request was cancelled mid-flight" true
            (List.mem "partial" !statuses || List.mem "error" !statuses)));
  (* with_server joined the domain: run () returned, so the drain
     completed and removed the socket. *)
  Alcotest.(check bool) "socket removed" true true

(* A server run in-process hands SIGTERM/SIGINT back when it stops:
   the dispositions in place before it started are in place after. *)
let test_signals_restored () =
  let term_marker _ = () and int_marker _ = () in
  let saved_term = Sys.signal Sys.sigterm (Sys.Signal_handle term_marker) in
  let saved_int = Sys.signal Sys.sigint (Sys.Signal_handle int_marker) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm saved_term;
      Sys.set_signal Sys.sigint saved_int)
    (fun () ->
      with_server ~handlers:1 (fun path ->
          let c = Serve.Client.connect ~retries:100 path in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              Alcotest.(check string)
                "server up" "ok"
                (status (Serve.Client.request c {|{"id":1,"op":"ping"}|}))));
      let is marker = function
        | Sys.Signal_handle f -> f == marker
        | Sys.Signal_default | Sys.Signal_ignore -> false
      in
      Alcotest.(check bool)
        "SIGTERM handler restored" true
        (is term_marker (Sys.signal Sys.sigterm saved_term));
      Alcotest.(check bool)
        "SIGINT handler restored" true
        (is int_marker (Sys.signal Sys.sigint saved_int)))

(* ------------------------------------------------------------------ *)
(* Deterministic shutdown slots (Obs.Shutdown)                         *)

let test_shutdown_order () =
  let seen = ref [] in
  (* Register in scrambled order; run must execute in slot order. *)
  Obs.Shutdown.register Obs.Shutdown.Log_flush (fun () ->
      seen := "log_flush" :: !seen);
  Obs.Shutdown.register Obs.Shutdown.Postmortem (fun () ->
      seen := "postmortem" :: !seen);
  Obs.Shutdown.register Obs.Shutdown.Telemetry_close (fun () ->
      seen := "telemetry_close" :: !seen);
  Obs.Shutdown.run ();
  Alcotest.(check (list string))
    "slots run postmortem -> telemetry_close -> log_flush"
    [ "postmortem"; "telemetry_close"; "log_flush" ]
    (List.rev !seen);
  (* Idempotent: a second run must not re-run consumed steps. *)
  Obs.Shutdown.run ();
  Alcotest.(check int) "steps run at most once" 3 (List.length !seen)

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol round-trip" `Quick test_protocol;
      Alcotest.test_case "exact ids and at bindings" `Quick test_exact_numbers;
      Alcotest.test_case "at literals must denote exact integers" `Quick
        test_exact_at_literals;
      Alcotest.test_case "legacy plan and backend fields keep bodies identical"
        `Quick test_legacy_fields;
      Alcotest.test_case "interleaved replay x100 is byte-identical (certified)"
        `Quick test_replay_interleaved;
      Alcotest.test_case "admission control sheds with typed responses" `Quick
        test_shed;
      Alcotest.test_case "over-long request line rejected, server serves on"
        `Quick test_long_line;
      fuzz_proto_parse;
      Alcotest.test_case "answer cache: identical bodies, metrics, eviction"
        `Quick test_cache;
      Alcotest.test_case "chaos under concurrent load (>=200 faults)" `Quick
        test_chaos_under_load;
      Alcotest.test_case "concurrent handlers answer as Query.run" `Quick
        test_concurrent_handlers;
      Alcotest.test_case "value tier: new bindings equal cold runs" `Quick
        test_value_tier_bindings;
      Alcotest.test_case "value tier: exact keys survive a fingerprint collision"
        `Quick test_value_tier_exact_keys;
      Alcotest.test_case "parse under the request's own wildcard counter"
        `Quick test_parse_in_request_context;
      Alcotest.test_case "value tier: weighted capacity" `Quick
        test_cache_weights;
      Alcotest.test_case "SIGTERM mid-flight drains crash-only" `Quick
        test_sigterm_drain;
      Alcotest.test_case "stopped server restores signal handlers" `Quick
        test_signals_restored;
      Alcotest.test_case "shutdown slots run in fixed order once" `Quick
        test_shutdown_order;
    ] )
