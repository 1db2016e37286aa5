(* Quasi-polynomials: rational-coefficient polynomials over atoms that are
   plain variables or periodic [e mod c] terms. *)

module SMap = Map.Make (String)

module Lin = struct
  type t = { coeffs : Qnum.t SMap.t; const : Qnum.t }
  (* Invariant: no zero coefficients stored. *)

  let zero = { coeffs = SMap.empty; const = Qnum.zero }
  let const c = { coeffs = SMap.empty; const = c }
  let of_int n = const (Qnum.of_int n)
  let var v = { coeffs = SMap.singleton v Qnum.one; const = Qnum.zero }

  let add a b =
    {
      coeffs =
        SMap.union
          (fun _ x y ->
            let s = Qnum.add x y in
            if Qnum.is_zero s then None else Some s)
          a.coeffs b.coeffs;
      const = Qnum.add a.const b.const;
    }

  let neg a =
    { coeffs = SMap.map Qnum.neg a.coeffs; const = Qnum.neg a.const }

  let sub a b = add a (neg b)

  let scale q a =
    if Qnum.is_zero q then zero
    else if Qnum.equal q Qnum.one then a
    else { coeffs = SMap.map (Qnum.mul q) a.coeffs; const = Qnum.mul q a.const }

  let coeff a v = try SMap.find v a.coeffs with Not_found -> Qnum.zero
  let constant a = a.const
  let vars a = List.map fst (SMap.bindings a.coeffs)
  let is_const a = SMap.is_empty a.coeffs

  let subst a v r =
    let c = coeff a v in
    if Qnum.is_zero c then a
    else add { a with coeffs = SMap.remove v a.coeffs } (scale c r)

  let eval env a =
    SMap.fold
      (fun v c acc -> Qnum.add acc (Qnum.mul c (Qnum.of_zint (env v))))
      a.coeffs a.const

  let compare a b =
    let c = Qnum.compare a.const b.const in
    if c <> 0 then c
    else SMap.compare Qnum.compare a.coeffs b.coeffs

  let equal a b = compare a b = 0

  let pp fmt a =
    let terms =
      SMap.bindings a.coeffs
      |> List.map (fun (v, c) ->
             if Qnum.equal c Qnum.one then v
             else if Qnum.equal c Qnum.minus_one then "-" ^ v
             else Qnum.to_string c ^ v)
    in
    let terms =
      if Qnum.is_zero a.const && terms <> [] then terms
      else terms @ [ Qnum.to_string a.const ]
    in
    let rec join = function
      | [] -> ()
      | [ x ] -> Format.pp_print_string fmt x
      | x :: rest ->
          Format.pp_print_string fmt x;
          (match rest with
          | next :: _ when String.length next > 0 && next.[0] = '-' ->
              Format.pp_print_string fmt ""
          | _ -> Format.pp_print_string fmt "+");
          join rest
    in
    join terms

  let to_string a = Format.asprintf "%a" pp a
end

module Atom = struct
  type t = Var of string | Mod of Lin.t * Zint.t

  let modulo e c =
    if Zint.sign c <= 0 then invalid_arg "Qpoly.Atom.modulo: modulus must be positive";
    (* Reduce integral coefficients (and the constant) into [0, c). *)
    let reduce q =
      match Qnum.to_zint q with
      | Some z -> Qnum.of_zint (Zint.fmod z c)
      | None -> q
    in
    let coeffs =
      SMap.filter_map
        (fun _ q ->
          let q' = reduce q in
          if Qnum.is_zero q' then None else Some q')
        e.Lin.coeffs
    in
    let const = reduce e.Lin.const in
    let e' = { Lin.coeffs; const } in
    if Lin.is_const e' then begin
      match Qnum.to_zint e'.Lin.const with
      | Some z -> `Const (Zint.fmod z c)
      | None -> `Atom (Mod (e', c))
    end
    else `Atom (Mod (e', c))

  let compare a b =
    match (a, b) with
    | Var x, Var y -> String.compare x y
    | Var _, Mod _ -> -1
    | Mod _, Var _ -> 1
    | Mod (e1, c1), Mod (e2, c2) ->
        let c = Zint.compare c1 c2 in
        if c <> 0 then c else Lin.compare e1 e2

  let equal a b = compare a b = 0

  let pp fmt = function
    | Var v -> Format.pp_print_string fmt v
    | Mod (e, c) -> Format.fprintf fmt "(%a mod %a)" Lin.pp e Zint.pp c
end

(* A monomial is a sorted association list atom -> positive power. *)
module Mono = struct
  type t = (Atom.t * int) list

  let one : t = []

  let compare (a : t) (b : t) =
    (* Order by total degree first so printing is degree-descending via
       rev-iteration; ties broken lexicographically. *)
    let deg m = List.fold_left (fun acc (_, p) -> acc + p) 0 m in
    let c = Int.compare (deg a) (deg b) in
    if c <> 0 then c
    else
      List.compare
        (fun (x, p) (y, q) ->
          let c = Atom.compare x y in
          if c <> 0 then c else Int.compare p q)
        a b

  let mul (a : t) (b : t) : t =
    let rec go a b =
      match (a, b) with
      | [], m | m, [] -> m
      | (x, p) :: ra, (y, q) :: rb ->
          let c = Atom.compare x y in
          if c < 0 then (x, p) :: go ra b
          else if c > 0 then (y, q) :: go a rb
          else (x, p + q) :: go ra rb
    in
    go a b

  let degree (m : t) = List.fold_left (fun acc (_, p) -> acc + p) 0 m

  let pp fmt (m : t) =
    List.iteri
      (fun i (a, p) ->
        if i > 0 then Format.pp_print_string fmt "*";
        if p = 1 then Atom.pp fmt a
        else Format.fprintf fmt "%a^%d" Atom.pp a p)
      m
end

module MMap = Map.Make (Mono)

type t = Qnum.t MMap.t (* invariant: no zero coefficients *)

let zero : t = MMap.empty
let const c = if Qnum.is_zero c then zero else MMap.singleton Mono.one c
let of_int n = const (Qnum.of_int n)
let of_ints a b = const (Qnum.of_ints a b)
let one = of_int 1
let atom a = MMap.singleton [ (a, 1) ] Qnum.one
let var v = atom (Atom.Var v)

let add (a : t) (b : t) : t =
  MMap.union
    (fun _ x y ->
      let s = Qnum.add x y in
      if Qnum.is_zero s then None else Some s)
    a b

let neg (a : t) : t = MMap.map Qnum.neg a
let sub a b = add a (neg b)

let scale q (a : t) : t =
  if Qnum.is_zero q then zero
  else if Qnum.equal q Qnum.one then a
  else MMap.map (Qnum.mul q) a

let mul (a : t) (b : t) : t =
  MMap.fold
    (fun ma ca acc ->
      MMap.fold
        (fun mb cb acc ->
          let m = Mono.mul ma mb in
          let c = Qnum.mul ca cb in
          MMap.update m
            (function
              | None -> Some c
              | Some c0 ->
                  let s = Qnum.add c0 c in
                  if Qnum.is_zero s then None else Some s)
            acc)
        b acc)
    a zero

let pow t n =
  if n < 0 then invalid_arg "Qpoly.pow: negative exponent";
  let rec go acc b n =
    let acc = if n land 1 = 1 then mul acc b else acc in
    if n <= 1 then acc else go acc (mul b b) (n lsr 1)
  in
  go one t n

let of_lin l =
  SMap.fold
    (fun v c acc -> add acc (scale c (var v)))
    l.Lin.coeffs
    (const l.Lin.const)

let is_zero (t : t) = MMap.is_empty t
let equal (a : t) (b : t) = MMap.equal Qnum.equal a b
let compare (a : t) (b : t) = MMap.compare Qnum.compare a b
let degree (t : t) = MMap.fold (fun m _ acc -> max acc (Mono.degree m)) t (-1)

let degree_in (t : t) v =
  MMap.fold
    (fun m _ acc ->
      let d =
        List.fold_left
          (fun acc (a, p) ->
            match a with
            | Atom.Var x when String.equal x v -> acc + p
            | _ -> acc)
          0 m
      in
      max acc d)
    t 0

let vars (t : t) =
  let add_atom acc = function
    | Atom.Var v -> v :: acc
    | Atom.Mod (l, _) -> List.rev_append (Lin.vars l) acc
  in
  MMap.fold
    (fun m _ acc -> List.fold_left (fun acc (a, _) -> add_atom acc a) acc m)
    t []
  |> List.sort_uniq String.compare

let to_const (t : t) =
  if is_zero t then Some Qnum.zero
  else if MMap.cardinal t = 1 then
    match MMap.min_binding t with
    | [], c -> Some c
    | _ -> None
  else None

let to_lin (t : t) =
  let exception Not_affine in
  try
    Some
      (MMap.fold
         (fun m c acc ->
           match m with
           | [] -> Lin.add acc (Lin.const c)
           | [ (Atom.Var v, 1) ] -> Lin.add acc (Lin.scale c (Lin.var v))
           | _ -> raise Not_affine)
         t Lin.zero)
  with Not_affine -> None

let coeffs_in (t : t) v =
  let d = degree_in t v in
  let cs = Array.make (d + 1) zero in
  MMap.iter
    (fun m c ->
      let vpow = ref 0 in
      let rest =
        List.filter
          (fun (a, p) ->
            match a with
            | Atom.Var x when String.equal x v ->
                vpow := p;
                false
            | Atom.Mod (l, _) when not (Qnum.is_zero (Lin.coeff l v)) ->
                invalid_arg
                  (Printf.sprintf
                     "Qpoly.coeffs_in: %s occurs inside a mod atom" v)
            | _ -> true)
          m
      in
      cs.(!vpow) <- add cs.(!vpow) (MMap.singleton rest c))
    t;
  cs

(* Rebuild a polynomial from a monomial paired with a replacement for one of
   its atoms. *)
let subst_generic (t : t) v ~replace_var ~replace_mod =
  MMap.fold
    (fun m c acc ->
      let factors =
        List.map
          (fun (a, p) ->
            match a with
            | Atom.Var x when String.equal x v -> pow (replace_var ()) p
            | Atom.Mod (l, md) when not (Qnum.is_zero (Lin.coeff l v)) ->
                pow (replace_mod l md) p
            | _ -> pow (atom a) p)
          m
      in
      add acc (scale c (List.fold_left mul one factors)))
    t zero

let subst_lin (t : t) v (l : Lin.t) =
  subst_generic t v
    ~replace_var:(fun () -> of_lin l)
    ~replace_mod:(fun inner md ->
      match Atom.modulo (Lin.subst inner v l) md with
      | `Atom a -> atom a
      | `Const z -> const (Qnum.of_zint z))

let subst (t : t) v (r : t) =
  match to_lin r with
  | Some l -> subst_lin t v l
  | None ->
      subst_generic t v
        ~replace_var:(fun () -> r)
        ~replace_mod:(fun _ _ ->
          invalid_arg
            (Printf.sprintf
               "Qpoly.subst: %s occurs under a mod atom and the replacement \
                is not affine"
               v))

let monomials (t : t) = MMap.fold (fun m c acc -> (c, m) :: acc) t []

(* [num/den] of [q] scaled to the common denominator [d] (a multiple
   of [den]): the integer [num · (d / den)]. *)
let over d q =
  let den = Qnum.den q in
  if Zint.is_one den then Zint.mul (Qnum.num q) d
  else Zint.mul (Qnum.num q) (Zint.divexact d den)

let lcm_den q acc =
  let den = Qnum.den q in
  if Zint.divides den acc then acc else Zint.lcm acc den

(* Evaluation stays in integers: every atom is an integer at an integer
   point (a mod atom reduces its argument, itself evaluated over its
   coefficients' common denominator), and the polynomial is one integer
   numerator over the lcm of its coefficients' denominators. Only the
   final quotient is a rational. *)
let eval_mod env l c =
  let d =
    SMap.fold (fun _ q acc -> lcm_den q acc) l.Lin.coeffs
      (Qnum.den l.Lin.const)
  in
  let num =
    SMap.fold
      (fun v q acc -> Zint.add acc (Zint.mul (over d q) (env v)))
      l.Lin.coeffs (over d l.Lin.const)
  in
  if Zint.is_one d then Zint.fmod num c
  else begin
    let x, r = Zint.fdiv_rem num d in
    if not (Zint.is_zero r) then
      failwith
        (Format.asprintf "Qpoly.eval: mod argument (%a) is not integral"
           Lin.pp l);
    Zint.fmod x c
  end

let eval env (t : t) =
  (* a mod atom usually recurs across monomials, physically shared *)
  let seen = ref [] in
  let atom = function
    | Atom.Var v -> env v
    | Atom.Mod (l, c) as a -> (
        match List.assq_opt a !seen with
        | Some x -> x
        | None ->
            let x = eval_mod env l c in
            seen := (a, x) :: !seen;
            x)
  in
  let rec mono acc = function
    | [] -> acc
    | (a, p) :: m ->
        let x = atom a in
        mono (Zint.mul acc (if p = 1 then x else Zint.pow x p)) m
  in
  let d = MMap.fold (fun _ q acc -> lcm_den q acc) t Zint.one in
  let num =
    MMap.fold (fun m c acc -> Zint.add acc (mono (over d c) m)) t Zint.zero
  in
  Qnum.make num d

let eval_zint env t =
  let q = eval env t in
  match Qnum.to_zint q with
  | Some z -> z
  | None ->
      failwith
        (Printf.sprintf "Qpoly.eval_zint: non-integral value %s"
           (Qnum.to_string q))

(* Bernoulli numbers, B+ convention (B_1 = +1/2), memoized. *)

let binomial n k =
  (* exact, small n *)
  let k = if k > n - k then n - k else k in
  let acc = ref Zint.one in
  for i = 0 to k - 1 do
    acc := Zint.divexact (Zint.mul !acc (Zint.of_int (n - i))) (Zint.of_int (i + 1))
  done;
  !acc

(* Per-domain memo table (DLS): Bernoulli numbers are pure values, so
   private caches cost at most a recomputation per domain and keep the
   Hashtbl free of cross-domain races. *)
let bernoulli_tbl_key : (int, Qnum.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let rec bernoulli n =
  if n < 0 then invalid_arg "Qpoly.bernoulli: negative index";
  if n = 0 then Qnum.one
  else if n = 1 then Qnum.of_ints 1 2
  else if n land 1 = 1 then Qnum.zero
  else
    let bernoulli_tbl = Domain.DLS.get bernoulli_tbl_key in
    match Hashtbl.find_opt bernoulli_tbl n with
    | Some b -> b
    | None ->
        (* B⁻ recurrence: Σ_{j=0}^{m} C(m+1,j) B⁻_j = 0;  B⁻ = B⁺ except at
           index 1, and odd indices ≥ 3 vanish, so we can use B⁺ values with
           the sign of B₁ flipped. *)
        let m = n in
        let sum = ref Qnum.zero in
        for j = 0 to m - 1 do
          let bj = if j = 1 then Qnum.of_ints (-1) 2 else bernoulli j in
          sum :=
            Qnum.add !sum (Qnum.mul (Qnum.of_zint (binomial (m + 1) j)) bj)
        done;
        let b =
          Qnum.div (Qnum.neg !sum) (Qnum.of_int (m + 1))
        in
        Hashtbl.replace bernoulli_tbl n b;
        b

(* The coefficients of F_p, [a.(e)] on x^e for e = 0 .. p+1:
   F_p(n) = 1/(p+1) Σ_{j=0}^{p} C(p+1, j) B⁺_j n^{p+1-j}. Pure values,
   memoized per domain like the Bernoulli numbers. *)
let faulhaber_tbl_key : (int, Qnum.t array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let faulhaber_coeffs p =
  if p < 0 then invalid_arg "Qpoly.faulhaber: negative power";
  let tbl = Domain.DLS.get faulhaber_tbl_key in
  match Hashtbl.find_opt tbl p with
  | Some a -> a
  | None ->
      let a = Array.make (p + 2) Qnum.zero in
      let inv = Qnum.of_ints 1 (p + 1) in
      for j = 0 to p do
        a.(p + 1 - j) <-
          Qnum.mul inv
            (Qnum.mul (Qnum.of_zint (binomial (p + 1) j)) (bernoulli j))
      done;
      Hashtbl.replace tbl p a;
      a

let faulhaber p x =
  let a = faulhaber_coeffs p in
  let n = var x in
  let acc = ref zero in
  Array.iteri (fun e c -> acc := add !acc (scale c (pow n e))) a;
  !acc

(* [d.(e) = hi^e − (lo − 1)^e] for e = 0 .. n, each power built from the
   one below, so every F_p(hi) − F_p(lo − 1) up to p = n − 1 is a linear
   combination of [d]. *)
let power_diffs lo hi n =
  let lo1 = sub lo one in
  let ph = ref one and pl = ref one in
  Array.init (n + 1) (fun e ->
      if e > 0 then begin
        ph := mul !ph hi;
        pl := mul !pl lo1
      end;
      sub !ph !pl)

let range_sum_of_diffs p d =
  let a = faulhaber_coeffs p in
  let acc = ref zero in
  Array.iteri (fun e c -> acc := add !acc (scale c d.(e))) a;
  !acc

let range_sum p lo hi = range_sum_of_diffs p (power_diffs lo hi (p + 1))

let sum_over t v lo hi =
  let cs = coeffs_in t v in
  let d = power_diffs lo hi (Array.length cs) in
  let acc = ref zero in
  Array.iteri (fun k c -> acc := add !acc (mul c (range_sum_of_diffs k d))) cs;
  !acc

let pp fmt (t : t) =
  if is_zero t then Format.pp_print_string fmt "0"
  else begin
    (* Highest-degree monomials first. *)
    let terms = List.rev (MMap.bindings t) in
    List.iteri
      (fun i (m, c) ->
        let neg = Qnum.sign c < 0 in
        let c_abs = Qnum.abs c in
        if i = 0 then (if neg then Format.pp_print_string fmt "-")
        else Format.pp_print_string fmt (if neg then " - " else " + ");
        if m = [] then Format.pp_print_string fmt (Qnum.to_string c_abs)
        else begin
          if not (Qnum.equal c_abs Qnum.one) then
            Format.fprintf fmt "%s*" (Qnum.to_string c_abs);
          Mono.pp fmt m
        end)
      terms
  end

let to_string t = Format.asprintf "%a" pp t
