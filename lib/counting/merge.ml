module A = Presburger.Affine
module V = Presburger.Var
module C = Omega.Clause

(* For a piece whose guard carries exactly one stride (m, e'), view e' as
   e − r: the stride says e ≡ r (mod m) with e constant-free and
   r ∈ [0, m). Residue families share (m, e); the stride-free remainders
   of the guards may differ per member and are reconciled by guard
   transfer (below). *)
let stride_signature (c : C.t) =
  match c.strides with
  | [ (m, e') ] ->
      let cst = A.constant e' in
      let base = A.sub e' (A.const cst) in
      let r = Zint.fmod (Zint.neg cst) m in
      let rest = { c with strides = [] } in
      Some (Zint.to_string m ^ "|" ^ A.to_string base, rest, m, base, r)
  | _ -> None

let interp_var = "%residue"

(* Lagrange interpolation through (r, values.(r)), r = 0..m-1, in the
   quasi-polynomial ring; returns a polynomial in [interp_var]. *)
let lagrange values =
  let m = Array.length values in
  let t = Qpoly.var interp_var in
  let acc = ref Qpoly.zero in
  for r = 0 to m - 1 do
    let basis = ref Qpoly.one and denom = ref Qnum.one in
    for s = 0 to m - 1 do
      if s <> r then begin
        basis := Qpoly.mul !basis (Qpoly.sub t (Qpoly.of_int s));
        denom := Qnum.mul !denom (Qnum.of_int (r - s))
      end
    done;
    acc :=
      Qpoly.add !acc
        (Qpoly.scale (Qnum.inv !denom) (Qpoly.mul values.(r) !basis))
  done;
  !acc

(* Decide whether [value] vanishes on every integer point of clause [d].
   Only attempted by finite enumeration: [d] must have exactly one free
   variable, bounded on both sides by constants, spanning at most 64
   points, and [value] must mention no other variable. This implements the
   paper's guard-relaxation check from Example 6 ("the value of the first
   clause for n = 1 is 0, even if we ignore the guard"). *)
let value_zero_on value (d : C.t) =
  match V.Set.elements (C.free_vars d) with
  | [ v ] -> begin
      let vname = V.to_string v in
      if List.exists (fun u -> u <> vname) (Qpoly.vars value) then false
      else begin
        let lowers, uppers =
          List.fold_left
            (fun (lo, hi) e ->
              let cf = A.coeff e v in
              if Zint.is_zero cf then (lo, hi)
              else begin
                let r = A.subst e v A.zero in
                if Zint.sign cf > 0 then ((cf, A.neg r) :: lo, hi)
                else (lo, (Zint.neg cf, r) :: hi)
              end)
            ([], []) d.C.geqs
        in
        let const_bounds l =
          if List.for_all (fun (_, e) -> A.is_const e) l then
            Some (List.map (fun (c, e) -> Qnum.make (A.constant e) c) l)
          else None
        in
        match (const_bounds lowers, const_bounds uppers) with
        | Some (l0 :: ls), Some (u0 :: us) -> begin
            let lo = Qnum.ceil (List.fold_left Qnum.max l0 ls) in
            let hi = Qnum.floor (List.fold_left Qnum.min u0 us) in
            match (Zint.to_int lo, Zint.to_int hi) with
            | Some lo, Some hi when hi - lo <= 64 ->
                let ok = ref true in
                for p = lo to hi do
                  let env u =
                    if String.equal u vname then Zint.of_int p
                    else raise Not_found
                  in
                  if C.holds (fun u -> env (V.to_string u)) d then
                    if not (Qnum.is_zero (Qpoly.eval env value)) then
                      ok := false
                done;
                !ok
            | _ -> false
          end
        | _ -> false
      end
    end
  | _ -> false

(* [transferable ~stride ~from_guard ~to_guard ~value]: does
   [from_guard ∧ stride]·value denote the same function as
   [to_guard ∧ stride]·value?  Yes when the value vanishes on both sides
   of the symmetric difference (within the stride's residue class). *)
let transferable ~stride ~from_guard ~to_guard ~value =
  let zero_on_diff outer inner =
    let with_stride = { outer with C.strides = stride :: outer.C.strides } in
    Omega.Dnf.negate_clause inner
    |> List.filter_map (fun neg -> C.normalize (C.conjoin with_stride neg))
    |> List.filter Omega.Solve.is_feasible
    |> List.for_all (value_zero_on value)
  in
  C.to_string from_guard = C.to_string to_guard
  || (zero_on_diff to_guard from_guard && zero_on_diff from_guard to_guard)

(* ------------------------------------------------------------------ *)
(* Deterministic fan-out reduction *)

(* The reduction the engine uses to merge per-task results back into one
   value. Concatenation in input order: since [Value.t] denotes the sum
   of its pieces, any concatenation order denotes the same function, but
   fixing input order makes the parallel engine's output byte-identical
   to the serial engine's. *)
let combine (parts : Value.t list) : Value.t = List.concat parts

let compare_piece (a : Value.piece) (b : Value.piece) =
  match String.compare (C.to_string a.guard) (C.to_string b.guard) with
  | 0 -> Qpoly.compare a.value b.value
  | c -> c

(* [Value.simplify] normalizes guards and folds same-guard pieces (with
   commutative [Qpoly.add]), so after sorting by guard the result no
   longer depends on the order pieces were produced in. *)
let canonical (v : Value.t) : Value.t =
  List.sort compare_piece (Value.simplify v)

type member = {
  residue : Zint.t;
  rest_guard : C.t;
  stride : Zint.t * A.t;
  value : Qpoly.t;
  original : Value.piece;
}

(* Unify all members of one residue class onto a common guard, when every
   member's value transfers to it. Returns the unified member or None. *)
let unify_residue (members : member list) : member option =
  match members with
  | [] -> None
  | first :: _ -> begin
      let candidates =
        List.sort_uniq
          (fun a b -> String.compare (C.to_string a) (C.to_string b))
          (List.map (fun m -> m.rest_guard) members)
      in
      let fits target =
        List.for_all
          (fun m ->
            transferable ~stride:m.stride ~from_guard:m.rest_guard
              ~to_guard:target ~value:m.value)
          members
      in
      match List.find_opt fits candidates with
      | None -> None
      | Some target ->
          let value =
            List.fold_left
              (fun acc m -> Qpoly.add acc m.value)
              Qpoly.zero members
          in
          Some { first with rest_guard = target; value }
    end

let max_period = 16

let try_merge_family m base (members : member list) : Value.t option =
  (* bucket by residue *)
  match Zint.to_int m with
  | Some mi when mi >= 2 && mi <= max_period -> begin
      let buckets = Array.make mi [] in
      let in_range = ref true in
      List.iter
        (fun mem ->
          match Zint.to_int mem.residue with
          | Some r when r >= 0 && r < mi -> buckets.(r) <- mem :: buckets.(r)
          | _ -> in_range := false)
        members;
      if not !in_range then None
      else begin
        let unified = Array.map (fun ms -> unify_residue (List.rev ms)) buckets in
        if Array.exists (fun u -> u = None) unified then None
        else begin
          let unified = Array.map Option.get unified in
          (* transfer every residue's guard to a common target *)
          let candidates =
            Array.to_list unified
            |> List.map (fun u -> u.rest_guard)
            |> List.sort_uniq (fun a b ->
                   String.compare (C.to_string a) (C.to_string b))
          in
          let fits target =
            Array.for_all
              (fun u ->
                transferable ~stride:u.stride ~from_guard:u.rest_guard
                  ~to_guard:target ~value:u.value)
              unified
          in
          match List.find_opt fits candidates with
          | None -> None
          | Some target ->
              let values = Array.map (fun u -> u.value) unified in
              let h = lagrange values in
              let mod_poly =
                match Qpoly.Atom.modulo (A.to_qlin base) m with
                | `Atom a -> Qpoly.atom a
                | `Const z -> Qpoly.const (Qnum.of_zint z)
              in
              Some (Value.piece target (Qpoly.subst h interp_var mod_poly))
        end
      end
    end
  | _ -> None

let merge_residues (v : Value.t) : Value.t =
  let groups : (string, Zint.t * A.t * member list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  let passthrough = ref [] in
  List.iter
    (fun (p : Value.piece) ->
      match stride_signature p.guard with
      | Some (key, rest, m, base, r) ->
          let stride = List.hd p.guard.C.strides in
          let mem =
            { residue = r; rest_guard = rest; stride; value = p.value;
              original = p }
          in
          (match Hashtbl.find_opt groups key with
          | Some (_, _, l) -> l := mem :: !l
          | None ->
              order := key :: !order;
              Hashtbl.add groups key (m, base, ref [ mem ]))
      | None -> passthrough := p :: !passthrough)
    v;
  let merged =
    List.rev !order
    |> List.concat_map (fun key ->
           let m, base, members = Hashtbl.find groups key in
           let members = List.rev !members in
           match try_merge_family m base members with
           | Some pieces -> pieces
           | None -> List.map (fun mem -> mem.original) members)
  in
  merged @ List.rev !passthrough
