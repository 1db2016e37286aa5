module V = Presburger.Var
module C = Omega.Clause

type piece = { guard : C.t; value : Qpoly.t }
type t = piece list

let zero : t = []
let piece guard value : t = if Qpoly.is_zero value then [] else [ { guard; value } ]
let add (a : t) (b : t) : t = a @ b
let neg (v : t) = List.map (fun p -> { p with value = Qpoly.neg p.value }) v

let scale q (v : t) =
  if Qnum.is_zero q then []
  else List.map (fun p -> { p with value = Qpoly.scale q p.value }) v

let map_values f (v : t) =
  List.filter_map
    (fun p ->
      let value = f p.value in
      if Qpoly.is_zero value then None else Some { p with value })
    v

let simplify (v : t) : t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  (* guards group by their one-line rendering, equal exactly when their
     printed forms are *)
  let kb = Buffer.create 128 in
  let guard_key g =
    Buffer.clear kb;
    C.add_to_buffer kb g;
    Buffer.contents kb
  in
  List.iter
    (fun p ->
      match Omega.Clause.normalize p.guard with
      | None ->
          if Cert.armed () then
            Cert.record_refuted Cert.Simplify (Omega.Clause.snapshot p.guard)
      | Some g ->
          if Omega.Solve.is_feasible g then begin
            let g =
              match Omega.Gist.remove_redundant g with
              | Some g -> g
              | None -> g
            in
            let key = guard_key g in
            match Hashtbl.find_opt tbl key with
            | Some (g0, acc) -> Hashtbl.replace tbl key (g0, Qpoly.add acc p.value)
            | None ->
                order := key :: !order;
                Hashtbl.replace tbl key (g, p.value)
          end
          else if Cert.armed () then
            Cert.record_refuted Cert.Simplify (Omega.Clause.snapshot g))
    v;
  List.rev !order
  |> List.filter_map (fun key ->
         let g, value = Hashtbl.find tbl key in
         if Qpoly.is_zero value then None else Some { guard = g; value })

let eval env (v : t) =
  let var_env var = env (V.to_string var) in
  List.fold_left
    (fun acc p ->
      if C.holds var_env p.guard then Qnum.add acc (Qpoly.eval env p.value)
      else acc)
    Qnum.zero v

let eval_zint env v =
  let q = eval env v in
  match Qnum.to_zint q with
  | Some z -> z
  | None ->
      Omega.Error.fail ~phase:"value.eval_zint"
        ~context:[ ("value", Qnum.to_string q) ]
        "evaluation produced a non-integral value"

(* Format gets one string per polynomial and guard atom and places only
   the breaks: [@ + ] between pieces and those inside guards. *)
let pp fmt (v : t) =
  let b = Buffer.create 256 in
  let piece p =
    Buffer.clear b;
    if p.guard = C.top then Buffer.add_char b '('
    else begin
      Format.pp_print_string fmt "(sum : ";
      C.pp fmt p.guard;
      Buffer.add_string b " : "
    end;
    Qpoly.add_to_buffer b p.value;
    Buffer.add_char b ')';
    Format.pp_print_string fmt (Buffer.contents b)
  in
  match v with
  | [] -> Format.pp_print_string fmt "0"
  | p :: rest ->
      piece p;
      List.iter
        (fun p ->
          Format.pp_print_break fmt 1 0;
          Format.pp_print_string fmt "+ ";
          piece p)
        rest

let output fmt v = Format.fprintf fmt "@[%a@]@?" pp v

let add_to_buffer b v = output (Format.formatter_of_buffer b) v

let to_string v =
  let b = Buffer.create 256 in
  add_to_buffer b v;
  Buffer.contents b
