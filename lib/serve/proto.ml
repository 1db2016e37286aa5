(* omegad wire protocol — see proto.mli. *)

module J = Obs.Ojson

type query_req = {
  query : string;
  at : (string * Zint.t) list;  (* sorted by name at parse time *)
  strategy : Counting.Engine.strategy;
  backend : Counting.Engine.backend;
  merge : bool;
  budget : Counting.Governor.budget;
  certify : bool;
}

type op = Count of query_req | Ping | Metrics | Shutdown

type request = { id : J.t; op : op }

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

let strategy_of = function
  | "exact" -> Ok Counting.Engine.Exact
  | "upper" -> Ok Counting.Engine.Upper
  | "lower" -> Ok Counting.Engine.Lower
  | "symbolic" -> Ok Counting.Engine.Symbolic
  | s -> Error (Printf.sprintf "unknown strategy %S" s)

let backend_of = function
  | "pugh" -> Ok Counting.Engine.Pugh
  | "gf" -> Ok Counting.Engine.Gf
  | "auto" -> Ok Counting.Engine.Auto
  | s -> Error (Printf.sprintf "unknown backend %S" s)

let ( let* ) = Result.bind

let str_field ?default obj name parse =
  match J.member name obj with
  | None | Some J.Null -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" name))
  | Some (J.Str s) -> parse s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let bool_field obj name ~default =
  match J.member name obj with
  | None | Some J.Null -> Ok default
  | Some (J.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let int_opt_field obj name =
  match J.member name obj with
  | None | Some J.Null -> Ok None
  | Some (J.Num f) when Float.is_integer f && Float.abs f <= 1e15 ->
      Ok (Some (int_of_float f))
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

let at_field obj =
  match J.member "at" obj with
  | None | Some J.Null -> Ok []
  | Some (J.Obj kvs) -> (
      try
        Ok
          (List.sort
             (fun (a, _) (b, _) -> String.compare a b)
             (List.map
                (fun (k, v) ->
                  match v with
                  | J.Num f when Float.is_integer f && Float.abs f < 0x1p62 ->
                      (k, Zint.of_int (int_of_float f))
                  | J.Num f when Float.is_integer f ->
                      (* past 2^52 a [Num] was these very digits *)
                      (k, Zint.of_string (Printf.sprintf "%.0f" f))
                  | J.Lit s -> (
                      (* exact digits; a fraction, exponent or overflow fails *)
                      try (k, Zint.of_string s) with Invalid_argument _ -> failwith k)
                  | J.Str s -> (k, Zint.of_string s)
                  | _ -> failwith k)
                kvs))
      with
      | Failure k -> Error (Printf.sprintf "binding %S must be an integer" k)
      | _ -> Error "bad \"at\" binding")
  | Some _ -> Error "field \"at\" must be an object of name -> integer"

let parse_query_req obj =
  let* query = str_field obj "query" (fun s -> Ok s) in
  let* strategy = str_field obj "strategy" ~default:Counting.Engine.Exact strategy_of in
  let* backend = str_field obj "backend" ~default:Counting.Engine.Auto backend_of in
  let* merge = bool_field obj "merge" ~default:true in
  let* certify = bool_field obj "certify" ~default:false in
  let* at = at_field obj in
  let* deadline_ms = int_opt_field obj "deadline_ms" in
  let* fuel = int_opt_field obj "fuel" in
  let* max_fanout = int_opt_field obj "max_fanout" in
  let* max_clauses = int_opt_field obj "max_clauses" in
  Ok
    {
      query;
      at;
      strategy;
      backend;
      merge;
      budget =
        { Counting.Governor.deadline_ms; fuel; max_fanout; max_clauses };
      certify;
    }

let parse line =
  match J.parse line with
  | Error msg -> Error (J.Null, "bad JSON: " ^ msg)
  | Ok (J.Obj _ as obj) -> (
      let id = Option.value ~default:J.Null (J.member "id" obj) in
      let wrap = Result.map_error (fun m -> (id, m)) in
      match J.member "op" obj with
      | None | Some (J.Str "count") ->
          wrap
            (let* q = parse_query_req obj in
             Ok { id; op = Count q })
      | Some (J.Str "ping") -> Ok { id; op = Ping }
      | Some (J.Str "metrics") -> Ok { id; op = Metrics }
      | Some (J.Str "shutdown") -> Ok { id; op = Shutdown }
      | Some (J.Str s) -> Error (id, Printf.sprintf "unknown op %S" s)
      | Some _ -> Error (id, "field \"op\" must be a string"))
  | Ok _ -> Error (J.Null, "request must be a JSON object")

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let opts_of (q : query_req) =
  {
    Counting.Engine.default with
    strategy = q.strategy;
    backend = q.backend;
  }

(* Stitch the echoed id into a rendered body: bodies are canonical
   objects starting with '{', and the id goes first so cached bodies
   stay id-free (and therefore byte-shareable across requests). The id
   is echoed as parsed, so a number literal comes back verbatim. *)
let with_id id body =
  assert (String.length body > 0 && body.[0] = '{');
  let head = J.render (J.Obj [ ("id", id) ]) in
  if String.length body = 2 then head
  else
    String.sub head 0 (String.length head - 1)
    ^ "," ^ String.sub body 1 (String.length body - 1)

let status_body status fields =
  J.render (J.Obj (("status", J.Str status) :: fields))

let error_body ~cls ~msg =
  status_body "error" [ ("class", J.Str cls); ("message", J.Str msg) ]

let shed_body ~depth ~limit =
  status_body "shed" [ ("queue_depth", J.int depth); ("limit", J.int limit) ]

let pong_body = status_body "ok" [ ("pong", J.Bool true) ]

let shutdown_body = status_body "ok" [ ("stopping", J.Bool true) ]

let metrics_body text = status_body "ok" [ ("metrics", J.Str text) ]
