(* Canonical JSON answer bodies — see answer.mli.

   Extracted from omcount so the server returns byte-identical bodies:
   omcount prints these strings to stdout, omegad embeds them in its
   response frames and caches them verbatim. Any change here changes
   the published schema of both. *)

module J = Obs.Ojson

let env_of bindings name =
  match List.assoc_opt name bindings with
  | Some z -> z
  | None -> raise Not_found

let eval_num bindings v =
  match Value.eval (env_of bindings) v with
  | q -> Qnum.to_zint q
  | exception Not_found -> None

(* Evaluated counts are exact integer literals: a count past 2^53 is
   common and must not round through a float. *)
let eval_field name at v =
  match eval_num at v with
  | Some z -> [ (name, J.Lit (Zint.to_string z)) ]
  | None -> []

let value_json v = J.Str (Value.to_string v)

let complete_json ~at value =
  J.render
    (J.Obj
       ([ ("status", J.Str "complete"); ("value", value_json value) ]
       @ eval_field "eval" at value))

let partial_json ~at (p : Governor.partial) =
  J.render
    (J.Obj
       [
         ("status", J.Str "partial");
         ("reason", J.Str (Governor.reason_name p.reason));
         ("pieces_done", J.int p.pieces_done);
         ("clauses_done", J.int p.clauses_done);
         ("clauses_total", J.int p.clauses_total);
         ("pieces", value_json p.pieces);
         ("lower", value_json p.lower);
         ("upper", Option.fold ~none:J.Null ~some:value_json p.upper);
         ( "bounds",
           J.Obj
             (eval_field "lower" at p.lower
             @ Option.fold ~none:[] ~some:(eval_field "upper" at) p.upper) );
       ])
