(* Certificate assembly. See certify.mli for the schema. *)

module J = Obs.Ojson

let with_recording = Cert.with_recording

type outcome = Governor.outcome =
  | Complete of Value.t
  | Partial of Governor.partial

(* ------------------------------------------------------------------ *)
(* Serialization: values.                                              *)

let qjson q =
  J.Arr
    [ J.Str (Zint.to_string (Qnum.num q)); J.Str (Zint.to_string (Qnum.den q)) ]

let atom_json = function
  | Qpoly.Atom.Var v -> J.Obj [ ("v", J.Str v) ]
  | Qpoly.Atom.Mod (lin, m) ->
      J.Obj
        [
          ( "mod",
            J.Obj
              [
                ( "t",
                  J.Arr
                    (List.map
                       (fun v ->
                         J.Arr [ J.Str v; qjson (Qpoly.Lin.coeff lin v) ])
                       (Qpoly.Lin.vars lin)) );
                ("k", qjson (Qpoly.Lin.constant lin));
                ("m", J.Str (Zint.to_string m));
              ] );
        ]

let poly_json p =
  J.Arr
    (List.map
       (fun (q, atoms) ->
         J.Obj
           [
             ("q", qjson q);
             ( "m",
               J.Arr
                 (List.map
                    (fun (a, pow) ->
                      J.Arr [ atom_json a; J.int pow ])
                    atoms) );
           ])
       (Qpoly.monomials p))

let piece_json (p : Value.piece) =
  J.Obj
    [
      ("guard", Cert.clause_json (Omega.Clause.snapshot p.guard));
      ("value", poly_json p.value);
    ]

let pieces_json v = J.Arr (List.map piece_json v)

(* ------------------------------------------------------------------ *)
(* Serialization: events. Deduplicated and sorted on their rendered
   JSON so certificates are stable across --jobs levels (recording
   order under domains is scheduler-dependent). *)

let sort_dedup cmp l =
  let rec dedup = function
    | a :: b :: rest when cmp a b = 0 -> dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup (List.sort cmp l)

let refuted_entries events =
  let snaps =
    List.filter_map
      (function
        | Cert.Refuted (site, s) ->
            Some (Cert.site_name site, J.render (Cert.clause_json s), s)
        | Cert.Counted _ -> None)
      events
  in
  let cmp (n1, c1, _) (n2, c2, _) =
    match String.compare n1 n2 with 0 -> String.compare c1 c2 | k -> k
  in
  let unwitnessed = ref 0 in
  let entries =
    List.filter_map
      (fun (site, _, s) ->
        match Cert.witness s with
        | Some w ->
            Some
              (J.Obj
                 [
                   ("site", J.Str site);
                   ("clause", Cert.clause_json s);
                   ("witness", Cert.witness_json w);
                 ])
        | None ->
            incr unwitnessed;
            None)
      (sort_dedup cmp snaps)
  in
  (entries, !unwitnessed)

let gf_entries events =
  let gs =
    List.filter_map
      (function
        | Cert.Counted g -> Some (J.render (Cert.gf_json g), g)
        | Cert.Refuted _ -> None)
      events
  in
  let cmp (a, _) (b, _) = String.compare a b in
  List.map (fun (_, g) -> Cert.gf_json g) (sort_dedup cmp gs)

(* ------------------------------------------------------------------ *)
(* Evaluation points. Best-effort: a point the engine's own evaluator
   cannot settle (unbound constant, non-integral sum) is skipped rather
   than emitted unverifiable. *)

let at_json env =
  J.Arr
    (List.map (fun (n, z) -> J.Arr [ J.Str n; J.Str (Zint.to_string z) ]) env)

let try_eval value env =
  match Value.eval_zint (fun n -> List.assoc n env) value with
  | z -> Some z
  | exception _ -> None

let eval_complete value ats =
  List.filter_map
    (fun env ->
      match try_eval value env with
      | Some z ->
          Some
            (J.Obj
               [ ("at", at_json env); ("value", J.Str (Zint.to_string z)) ])
      | None -> None)
    ats

let eval_partial (p : Governor.partial) ats =
  List.filter_map
    (fun env ->
      let lower = try_eval p.lower env in
      let upper = Option.bind p.upper (fun u -> try_eval u env) in
      match (lower, upper) with
      | None, None -> None
      | _ ->
          let fld k = function
            | Some z -> [ (k, J.Str (Zint.to_string z)) ]
            | None -> []
          in
          Some
            (J.Obj
               (("at", at_json env) :: (fld "lower" lower @ fld "upper" upper))))
    ats

(* ------------------------------------------------------------------ *)

let build ~opts ~vars ~summand ~query ~ats ~outcome ~events ~dropped f =
  let fingerprint = Telemetry.fingerprint ~vars ~summand f in
  let options =
    J.obj (fun v -> J.Str v) (Engine.opts_fields opts)
  in
  let refuted, unwitnessed = refuted_entries events in
  let gf = gf_entries events in
  let status_fields =
    match outcome with
    | Complete value ->
        [
          ("status", J.Str "complete");
          ("pieces", pieces_json value);
          ("eval", J.Arr (eval_complete value ats));
        ]
    | Partial p ->
        [
          ("status", J.Str "partial");
          ("reason", J.Str (Governor.reason_name p.reason));
          (* The checker derives the lower bound from "pieces", so emit
             the governor's sound under-approximation there (it is the
             completed-piece sum on Exact/Lower runs and zero
             otherwise — sound either way). *)
          ("pieces", pieces_json p.lower);
          ("lower_sound", J.Bool true);
          ( "upper_pieces",
            match p.upper with Some u -> pieces_json u | None -> J.Null );
          ("eval", J.Arr (eval_partial p ats));
        ]
  in
  Cert.note_emitted ();
  J.Obj
    ([
       ("schema", J.Str "omegacount.cert.v1");
       ("fingerprint", J.Str fingerprint);
       ("query", J.Str query);
       ("vars", J.Arr (List.map (fun v -> J.Str v) vars));
       ("options", options);
     ]
    @ status_fields
    @ [
        ("refuted", J.Arr refuted);
        ("refuted_dropped", J.int dropped);
        ("unwitnessed", J.int unwitnessed);
        ("gf", J.Arr gf);
      ])
