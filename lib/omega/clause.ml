module V = Presburger.Var
module A = Presburger.Affine
module F = Presburger.Formula

type t = {
  wilds : V.Set.t;
  eqs : A.t list;
  geqs : A.t list;
  strides : (Zint.t * A.t) list;
}

let top = { wilds = V.Set.empty; eqs = []; geqs = []; strides = [] }

let make ?(wilds = []) ?(eqs = []) ?(geqs = []) ?(strides = []) () =
  { wilds = V.Set.of_list wilds; eqs; geqs; strides }

let conjoin a b =
  {
    wilds = V.Set.union a.wilds b.wilds;
    eqs = a.eqs @ b.eqs;
    geqs = a.geqs @ b.geqs;
    strides = a.strides @ b.strides;
  }

let all_vars c =
  let of_affs l =
    List.fold_left
      (fun acc e -> V.Set.union acc (V.Set.of_list (A.vars e)))
      V.Set.empty l
  in
  V.Set.union (of_affs c.eqs)
    (V.Set.union (of_affs c.geqs) (of_affs (List.map snd c.strides)))

let free_vars c = V.Set.diff (all_vars c) c.wilds
let size c = List.length c.eqs + List.length c.geqs + List.length c.strides

let subst c v e =
  {
    c with
    eqs = List.map (fun x -> A.subst x v e) c.eqs;
    geqs = List.map (fun x -> A.subst x v e) c.geqs;
    strides = List.map (fun (m, x) -> (m, A.subst x v e)) c.strides;
  }

(* Canonical sign for an equality: make the leading (smallest-variable)
   coefficient positive so that e = 0 and -e = 0 compare equal. *)
let canon_eq e =
  (* A.fold visits variables in increasing order, so the first coefficient
     seen is the leading one — no need to materialize the variable list. *)
  match A.fold (fun _ c acc -> match acc with None -> Some c | some -> some) e None with
  | None -> e
  | Some c -> if Zint.sign c < 0 then A.neg e else e

exception Contradiction

let normalize_eq e =
  (* gcd-normalize; detect gcd non-divisibility. *)
  if A.is_const e then
    if Zint.is_zero (A.constant e) then None else raise Contradiction
  else begin
    let g = A.gcd_coeffs e in
    if not (Zint.divides g (A.constant e)) then raise Contradiction
    else Some (canon_eq (A.divexact e g))
  end

let normalize_geq e =
  if A.is_const e then
    if Zint.sign (A.constant e) >= 0 then None else raise Contradiction
  else begin
    let g = A.gcd_coeffs e in
    if Zint.is_one g then Some e
    else begin
      let c = A.constant e in
      Some
        (A.add_const
           (A.divexact (A.sub e (A.const c)) g)
           (Zint.fdiv c g))
    end
  end

let normalize_stride (m, e) =
  if Zint.sign m <= 0 then invalid_arg "Clause.normalize: stride modulus <= 0";
  if Zint.is_one m then None
  else if A.is_const e then
    if Zint.divides m (A.constant e) then None else raise Contradiction
  else begin
    (* If g2 = gcd(variable coefficients, m) does not divide the constant,
       e ≡ const (mod g2) can never be ≡ 0 (mod m). *)
    let g2 = Zint.gcd (A.gcd_coeffs e) m in
    if not (Zint.divides g2 (A.constant e)) then raise Contradiction;
    let g = Zint.gcd (Zint.gcd (A.gcd_coeffs e) (A.constant e)) m in
    let m' = Zint.divexact m g and e' = A.divexact e g in
    if Zint.is_one m' then None
    else begin
      (* Reduce coefficients into [0, m'). *)
      let e'' =
        A.fold
          (fun v c acc -> A.add acc (A.term (Zint.fmod c m') v))
          e'
          (A.const (Zint.fmod (A.constant e') m'))
      in
      if A.is_const e'' then
        if Zint.divides m' (A.constant e'') then None else raise Contradiction
      else Some (m', e'')
    end
  end

module AMap = Map.Make (A)

let normalize c =
  try
    let eqs = List.filter_map normalize_eq c.eqs in
    let eqs = List.sort_uniq A.compare eqs in
    let geqs = List.filter_map normalize_geq c.geqs in
    (* Single-constraint redundancy: for identical variable parts keep the
       loosest constant requirement (e + c1 >= 0 and e + c2 >= 0 with
       c1 <= c2: the first implies the second). *)
    let by_varpart =
      List.fold_left
        (fun acc e ->
          let cst = A.constant e in
          let key = A.sub e (A.const cst) in
          AMap.update key
            (function None -> Some cst | Some c0 -> Some (Zint.min c0 cst))
            acc)
        AMap.empty geqs
    in
    (* Opposing pairs: key and -key present means -c1 <= key <= c2. *)
    let extra_eqs = ref [] in
    let geqs =
      AMap.fold
        (fun key cst acc ->
          match AMap.find_opt (A.neg key) by_varpart with
          | Some cst' ->
              (* key + cst >= 0 and -key + cst' >= 0: need -cst <= key <= cst' *)
              if Zint.compare (Zint.neg cst) cst' > 0 then raise Contradiction
              else if Zint.equal (Zint.neg cst) cst' then begin
                (* pinned: key = -cst; record equality once (for the
                   canonical orientation) *)
                if A.compare key (A.neg key) < 0 then
                  extra_eqs := A.add_const key cst :: !extra_eqs;
                acc
              end
              else A.add_const key cst :: acc
          | None -> A.add_const key cst :: acc)
        by_varpart []
    in
    let strides = List.filter_map normalize_stride c.strides in
    let strides =
      List.sort_uniq
        (fun (m1, e1) (m2, e2) ->
          let c = Zint.compare m1 m2 in
          if c <> 0 then c else A.compare e1 e2)
        strides
    in
    match !extra_eqs with
    | [] ->
        let wilds = V.Set.inter c.wilds (all_vars { c with eqs; geqs; strides }) in
        Some { wilds; eqs; geqs; strides }
    | extra ->
        (* New equalities may enable further normalization. *)
        let eqs' = List.filter_map normalize_eq extra @ eqs in
        let c' = { c with eqs = eqs'; geqs; strides } in
        let wilds = V.Set.inter c.wilds (all_vars c') in
        Some { c' with wilds }
  with Contradiction -> None

let strides_to_eqs c =
  let wilds = ref c.wilds in
  let eqs =
    List.fold_left
      (fun acc (m, e) ->
        let a = V.fresh_wild () in
        wilds := V.Set.add a !wilds;
        canon_eq (A.sub e (A.scale m (A.var a))) :: acc)
      c.eqs c.strides
  in
  { c with wilds = !wilds; eqs; strides = [] }

(* Substitute away wildcards with unit coefficients in equalities. *)
let rec solve_unit_wilds c =
  let find_unit () =
    List.find_map
      (fun e ->
        List.find_map
          (fun v ->
            if V.Set.mem v c.wilds then begin
              let cf = A.coeff e v in
              if Zint.is_one (Zint.abs cf) then Some (e, v, cf) else None
            end
            else None)
          (A.vars e))
      c.eqs
  in
  match find_unit () with
  | None -> c
  | Some (e, v, cf) ->
      (* cf·v + rest = 0  ⇒  v = -rest/cf with cf = ±1. *)
      let rest = A.sub e (A.term cf v) in
      let sol = if Zint.is_one cf then A.neg rest else rest in
      let c = subst c v sol in
      let c = { c with wilds = V.Set.remove v c.wilds } in
      let eqs = List.filter (fun e -> not (A.is_const e && Zint.is_zero (A.constant e))) c.eqs in
      solve_unit_wilds { c with eqs }

let rename_wilds c =
  V.Set.fold
    (fun w acc ->
      let w' = V.fresh_wild () in
      let acc = subst acc w (A.var w') in
      { acc with wilds = V.Set.add w' (V.Set.remove w acc.wilds) })
    c.wilds c

let wilds_in_affs wilds affs =
  List.fold_left
    (fun acc e ->
      List.fold_left
        (fun acc v -> if V.Set.mem v wilds then V.Set.add v acc else acc)
        acc (A.vars e))
    V.Set.empty affs

let eqs_to_strides c =
  let c = solve_unit_wilds c in
  (* Wildcards entangled with inequalities or strides ("dirty") cannot be
     re-parameterized here; propagate dirtiness through shared
     equalities. *)
  let dirty0 =
    wilds_in_affs c.wilds (c.geqs @ List.map snd c.strides)
  in
  let rec fix dirty =
    let dirty' =
      List.fold_left
        (fun acc e ->
          let ws =
            List.filter (fun v -> V.Set.mem v c.wilds) (A.vars e)
          in
          if List.exists (fun v -> V.Set.mem v acc) ws then
            List.fold_left (fun acc v -> V.Set.add v acc) acc ws
          else acc)
        dirty c.eqs
    in
    if V.Set.equal dirty dirty' then dirty else fix dirty'
  in
  let dirty = fix dirty0 in
  let clean = V.Set.diff (wilds_in_affs c.wilds c.eqs) dirty in
  if V.Set.is_empty clean then Some c
  else begin
    let has_clean e = List.exists (fun v -> V.Set.mem v clean) (A.vars e) in
    let sys, keep = List.partition has_clean c.eqs in
    let ws = V.Set.elements clean in
    let k = List.length ws in
    let m = List.length sys in
    (* B·ᾱ = r̄ where r̄_i = -(eq_i without wildcard terms). *)
    let b =
      Ilinalg.Mat.of_arrays
        (Array.of_list
           (List.map
              (fun e -> Array.of_list (List.map (fun w -> A.coeff e w) ws))
              sys))
    in
    let r =
      Array.of_list
        (List.map
           (fun e ->
             A.neg
               (List.fold_left (fun e w -> A.subst e w A.zero) e ws))
           sys)
    in
    let u, d, _v = Ilinalg.smith b in
    (* c̄ = U·r̄ (affine forms). Solvability of B ᾱ = r̄ over the integers:
       for i < min(m,k) with d_i ≠ 0: d_i | c̄_i; all other rows: c̄_i = 0. *)
    let cvec =
      Array.init m (fun i ->
          let acc = ref A.zero in
          for j = 0 to m - 1 do
            acc := A.add !acc (A.scale (Ilinalg.Mat.get u i j) r.(j))
          done;
          !acc)
    in
    let new_strides = ref [] and new_eqs = ref [] in
    (try
       for i = 0 to m - 1 do
         let di = if i < k then Ilinalg.Mat.get d i i else Zint.zero in
         if Zint.is_zero di then begin
           match normalize_eq cvec.(i) with
           | None -> ()
           | Some e -> new_eqs := e :: !new_eqs
         end
         else if not (Zint.is_one di) then begin
           match normalize_stride (di, cvec.(i)) with
           | None -> ()
           | Some s -> new_strides := s :: !new_strides
         end
       done;
       Some
         {
           wilds = V.Set.diff c.wilds clean;
           eqs = keep @ !new_eqs;
           geqs = c.geqs;
           strides = c.strides @ !new_strides;
         }
     with Contradiction -> None)
  end

let to_formula c =
  let atoms =
    List.map (fun e -> F.atom (F.Eq e)) c.eqs
    @ List.map (fun e -> F.atom (F.Geq e)) c.geqs
    @ List.map (fun (m, e) -> F.stride m e) c.strides
  in
  F.exists (V.Set.elements c.wilds) (F.and_ atoms)

(* Without wildcards a clause is a conjunction of atoms: decide them
   directly, with no formula built. *)
let holds ?box env c =
  if V.Set.is_empty c.wilds then
    List.for_all (fun e -> Zint.is_zero (A.eval env e)) c.eqs
    && List.for_all (fun e -> Zint.sign (A.eval env e) >= 0) c.geqs
    && List.for_all (fun (m, e) -> Zint.divides m (A.eval env e)) c.strides
  else F.holds ?box env (to_formula c)

(* Atom emitters, in print order: equalities, inequalities, strides. *)
let add_eq b e =
  A.add_to_buffer b e;
  Buffer.add_string b " = 0"

let add_geq b e =
  A.add_to_buffer b e;
  Buffer.add_string b " >= 0"

let add_stride b (m, e) =
  Zint.add_to_buffer b m;
  Buffer.add_string b " | (";
  A.add_to_buffer b e;
  Buffer.add_char b ')'

let add_wilds b wilds =
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char b ',';
      V.add_to_buffer b w)
    (V.Set.elements wilds)

(* [pp] with each break hint printed as one space. *)
let add_to_buffer b c =
  let first = ref true in
  let atom add x =
    if !first then first := false else Buffer.add_string b " && ";
    add b x
  in
  let add_atoms () =
    List.iter (atom add_eq) c.eqs;
    List.iter (atom add_geq) c.geqs;
    List.iter (atom add_stride) c.strides
  in
  if V.Set.is_empty c.wilds then begin
    if size c = 0 then Buffer.add_string b "TRUE" else add_atoms ()
  end
  else begin
    Buffer.add_string b "(exists ";
    add_wilds b c.wilds;
    Buffer.add_string b ": ";
    add_atoms ();
    Buffer.add_char b ')'
  end

(* Format gets one string per atom and places only the breaks; the
   boxes and breaks are [@[ … @]] and [@ ], called directly. *)
let pp fmt c =
  let b = Buffer.create 64 in
  let render add x =
    Buffer.clear b;
    add b x;
    Buffer.contents b
  in
  let atoms =
    List.map (render add_eq) c.eqs
    @ List.map (render add_geq) c.geqs
    @ List.map (render add_stride) c.strides
  in
  let rec pp_atoms = function
    | [] -> ()
    | [ a ] -> Format.pp_print_string fmt a
    | a :: rest ->
        Format.pp_print_string fmt a;
        Format.pp_print_string fmt " &&";
        Format.pp_print_break fmt 1 0;
        pp_atoms rest
  in
  if V.Set.is_empty c.wilds && atoms = [] then Format.pp_print_string fmt "TRUE"
  else begin
    Format.pp_open_box fmt 0;
    if V.Set.is_empty c.wilds then pp_atoms atoms
    else begin
      Buffer.clear b;
      Buffer.add_string b "(exists ";
      add_wilds b c.wilds;
      Buffer.add_char b ':';
      Format.pp_print_string fmt (Buffer.contents b);
      Format.pp_print_break fmt 1 0;
      pp_atoms atoms;
      Format.pp_print_string fmt ")"
    end;
    Format.pp_close_box fmt ()
  end

let to_string c = Format.asprintf "%a" pp c

let snapshot c =
  Cert.snapshot ~wilds:(V.Set.elements c.wilds) ~eqs:c.eqs ~geqs:c.geqs
    ~strides:c.strides
