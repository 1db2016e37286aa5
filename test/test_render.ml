(* The answer renderer against its all-Format predecessor.

   [Value.pp] and [Clause.pp] hand Format one pre-rendered string per
   polynomial and guard atom, and Format places only the break hints.
   [Old] below is the renderer they replaced, a [Format] call per atom
   and sign, kept here as the oracle: every rendering must be
   byte-identical to it, including where the margin-78 breaks fall.
   [Old.simplify] is likewise the grouping of [Value.simplify] keyed by
   [Clause.to_string]; the flat [Clause.add_to_buffer] key must group
   and order pieces exactly as it did. *)

module A = Presburger.Affine
module V = Presburger.Var
module C = Omega.Clause
module E = Counting.Engine

module Old = struct
  let zint fmt z = Format.pp_print_string fmt (Zint.to_string z)

  let affine fmt a =
    let first = ref true in
    let emit sign body =
      if !first then begin
        if sign < 0 then Format.pp_print_string fmt "-";
        first := false
      end
      else Format.pp_print_string fmt (if sign < 0 then " - " else " + ");
      body ()
    in
    A.fold
      (fun v c () ->
        emit (Zint.sign c) (fun () ->
            let a = Zint.abs c in
            if Zint.is_one a then V.pp fmt v
            else Format.fprintf fmt "%a%a" zint a V.pp v))
      a ();
    if not (Zint.is_zero (A.constant a)) || !first then
      emit (Zint.sign (A.constant a)) (fun () ->
          zint fmt (Zint.abs (A.constant a)))

  let lin fmt l =
    let module L = Qpoly.Lin in
    let terms =
      List.map
        (fun v ->
          let c = L.coeff l v in
          if Qnum.equal c Qnum.one then v
          else if Qnum.equal c Qnum.minus_one then "-" ^ v
          else Qnum.to_string c ^ v)
        (L.vars l)
    in
    let terms =
      if Qnum.is_zero (L.constant l) && terms <> [] then terms
      else terms @ [ Qnum.to_string (L.constant l) ]
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

  let atom fmt = function
    | Qpoly.Atom.Var v -> Format.pp_print_string fmt v
    | Qpoly.Atom.Mod (e, c) -> Format.fprintf fmt "(%a mod %a)" lin e zint c

  let mono fmt m =
    List.iteri
      (fun i (a, p) ->
        if i > 0 then Format.pp_print_string fmt "*";
        if p = 1 then atom fmt a else Format.fprintf fmt "%a^%d" atom a p)
      m

  (* [Qpoly]'s monomial order: total degree, then atoms and powers *)
  let mono_compare a b =
    let deg m = List.fold_left (fun acc (_, p) -> acc + p) 0 m in
    let c = Int.compare (deg a) (deg b) in
    if c <> 0 then c
    else
      List.compare
        (fun (x, p) (y, q) ->
          let c = Qpoly.Atom.compare x y in
          if c <> 0 then c else Int.compare p q)
        a b

  let qpoly fmt t =
    if Qpoly.is_zero t then Format.pp_print_string fmt "0"
    else begin
      let terms =
        List.sort
          (fun (_, m1) (_, m2) -> mono_compare m2 m1)
          (Qpoly.monomials t)
      in
      List.iteri
        (fun i (c, m) ->
          let neg = Qnum.sign c < 0 in
          let c_abs = Qnum.abs c in
          if i = 0 then (if neg then Format.pp_print_string fmt "-")
          else Format.pp_print_string fmt (if neg then " - " else " + ");
          if m = [] then Format.pp_print_string fmt (Qnum.to_string c_abs)
          else begin
            if not (Qnum.equal c_abs Qnum.one) then
              Format.fprintf fmt "%s*" (Qnum.to_string c_abs);
            mono fmt m
          end)
        terms
    end

  let clause fmt (c : C.t) =
    let pp_list pp_item fmt l =
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.fprintf fmt " &&@ ")
        pp_item fmt l
    in
    let items =
      List.map (fun e -> `E e) c.eqs
      @ List.map (fun e -> `G e) c.geqs
      @ List.map (fun s -> `S s) c.strides
    in
    let pp_item fmt = function
      | `E e -> Format.fprintf fmt "%a = 0" affine e
      | `G e -> Format.fprintf fmt "%a >= 0" affine e
      | `S (m, e) -> Format.fprintf fmt "%a | (%a)" zint m affine e
    in
    if V.Set.is_empty c.wilds then begin
      if items = [] then Format.pp_print_string fmt "TRUE"
      else Format.fprintf fmt "@[%a@]" (pp_list pp_item) items
    end
    else
      Format.fprintf fmt "@[(exists %a:@ %a)@]"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
           V.pp)
        (V.Set.elements c.wilds) (pp_list pp_item) items

  let value fmt (v : Counting.Value.t) =
    match v with
    | [] -> Format.pp_print_string fmt "0"
    | _ ->
        Format.pp_print_list
          ~pp_sep:(fun fmt () -> Format.fprintf fmt "@ + ")
          (fun fmt (p : Counting.Value.piece) ->
            if p.guard = C.top then Format.fprintf fmt "(%a)" qpoly p.value
            else Format.fprintf fmt "(sum : %a : %a)" clause p.guard qpoly p.value)
          fmt v

  let value_to_string v = Format.asprintf "@[%a@]" value v
  let clause_to_string c = Format.asprintf "%a" clause c

  let simplify (v : Counting.Value.t) : Counting.Value.t =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun (p : Counting.Value.piece) ->
        match C.normalize p.guard with
        | None -> ()
        | Some g ->
            if Omega.Solve.is_feasible g then begin
              let g =
                match Omega.Gist.remove_redundant g with Some g -> g | None -> g
              in
              let key = clause_to_string g in
              match Hashtbl.find_opt tbl key with
              | Some (g0, acc) ->
                  Hashtbl.replace tbl key (g0, Qpoly.add acc p.value)
              | None ->
                  order := key :: !order;
                  Hashtbl.replace tbl key (g, p.value)
            end)
      v;
    List.rev !order
    |> List.filter_map (fun key ->
           let g, value = Hashtbl.find tbl key in
           if Qpoly.is_zero value then None
           else Some { Counting.Value.guard = g; value })
end

let check_value label v =
  let want = Old.value_to_string v in
  let got = Counting.Value.to_string v in
  if not (String.equal want got) then
    Alcotest.failf "%s: renderings differ\nold: %S\nnew: %S" label want got;
  let b = Buffer.create 16 in
  Buffer.add_string b "seed";
  Counting.Value.add_to_buffer b v;
  Alcotest.(check string) (label ^ ": add_to_buffer") ("seed" ^ want)
    (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Random values                                                        *)

(* Names short and long: a guard of a few long-named atoms, or a piece
   of several, passes the 78-column margin. *)
let names =
  [| "n"; "m"; "N"; "i'"; "p_1"; "blocksize_of_the_outer_tile";
     "number_of_processors_in_grid" |]

let gen_zint =
  let open QCheck.Gen in
  frequency
    [
      (6, map Zint.of_int (int_range (-7) 7));
      (2, map Zint.of_int (int_range (-100_000) 100_000));
      ( 1,
        map
          (fun (a, neg) ->
            let z = Zint.mul (Zint.of_string "123456789012345678901") (Zint.of_int a) in
            if neg then Zint.neg z else z)
          (pair (int_range 1 9) bool) );
    ]

let gen_name = QCheck.Gen.oneofa names

let gen_affine ?(coeff = gen_zint) wilds =
  let open QCheck.Gen in
  let var =
    if wilds = [] then map V.named gen_name
    else frequency [ (3, map V.named gen_name); (2, oneofl wilds) ]
  in
  let* terms = list_size (int_range 0 4) (pair coeff var) in
  let* c = coeff in
  return
    (List.fold_left
       (fun acc (k, v) -> A.add acc (A.term k v))
       (A.const c) terms)

(* [small] keeps coefficients and wildcards few and small enough for the
   solver, which [Value.simplify] runs on every guard. *)
let gen_clause ?(small = false) ?(max_wilds = if small then 1 else 3) () =
  let open QCheck.Gen in
  let* nw =
    if max_wilds = 0 then return 0
    else frequency [ (3, return 0); (1, int_range 1 max_wilds) ]
  in
  (* wildcards are fresh per generated clause; their numbers vary *)
  let wilds = List.init nw (fun _ -> V.fresh_wild ()) in
  let aff =
    if small then gen_affine ~coeff:(map Zint.of_int (int_range (-2) 2)) wilds
    else gen_affine wilds
  in
  let upto k = int_range 0 (if small then k / 2 else k) in
  let* eqs = list_size (upto 2) aff in
  let* geqs = list_size (upto 4) aff in
  let* strides =
    list_size (upto 2)
      (pair (map Zint.of_int (int_range 2 (if small then 5 else 97))) aff)
  in
  return (C.make ~wilds ~eqs ~geqs ~strides ())

let gen_qnum =
  let open QCheck.Gen in
  let* num = gen_zint in
  let* den = frequency [ (3, return 1); (2, int_range 1 40) ] in
  return (if Zint.is_zero num then Qnum.one else Qnum.make num (Zint.of_int den))

let gen_lin =
  let open QCheck.Gen in
  let* terms = list_size (int_range 0 3) (pair gen_qnum gen_name) in
  let* c = gen_qnum in
  return
    (List.fold_left
       (fun acc (q, v) -> Qpoly.Lin.add acc (Qpoly.Lin.scale q (Qpoly.Lin.var v)))
       (Qpoly.Lin.const c) terms)

let gen_atom =
  let open QCheck.Gen in
  frequency
    [
      (3, map Qpoly.var gen_name);
      ( 2,
        let* l = gen_lin in
        let* m = int_range 1 97 in
        return
          (match Qpoly.Atom.modulo l (Zint.of_int m) with
          | `Atom a -> Qpoly.atom a
          | `Const z -> Qpoly.const (Qnum.of_zint z)) );
    ]

let gen_mono =
  let open QCheck.Gen in
  let* atoms = list_size (int_range 0 3) (pair gen_atom (int_range 1 3)) in
  let* q = gen_qnum in
  return
    (Qpoly.scale q
       (List.fold_left (fun acc (a, p) -> Qpoly.mul acc (Qpoly.pow a p)) Qpoly.one atoms))

let gen_qpoly =
  let open QCheck.Gen in
  let* monos = list_size (int_range 0 6) gen_mono in
  return (List.fold_left Qpoly.add Qpoly.zero monos)

let gen_piece guard =
  let open QCheck.Gen in
  let* g = frequency [ (1, return C.top); (4, guard) ] in
  let* p = gen_qpoly in
  return { Counting.Value.guard = g; value = p }

let gen_value = QCheck.Gen.(list_size (int_range 0 6) (gen_piece (gen_clause ())))

let value_arb =
  QCheck.make ~print:Counting.Value.to_string gen_value

(* Seeded, so that a failure reproduces. *)
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 22 |]) t

let prop_value_renders_as_old =
  to_alcotest
    (QCheck.Test.make ~name:"random values render as the all-Format oracle"
       ~count:1000 value_arb (fun v ->
         check_value "random value" v;
         List.iter
           (fun (p : Counting.Value.piece) ->
             let want = Old.clause_to_string p.guard in
             if not (String.equal want (C.to_string p.guard)) then
               QCheck.Test.fail_reportf "clause: old %S, new %S" want
                 (C.to_string p.guard))
           v;
         true))

(* Pieces over variants of one guard, each drawn several times: the
   guard itself, with its inequalities reordered, and with one more
   equality, stride or set of constraints, so that guards that differ
   in any one part are grouped apart. *)
let gen_grouped_value =
  let open QCheck.Gen in
  let* base = gen_clause ~small:true () in
  let* extra = gen_clause ~small:true ~max_wilds:0 () in
  let variants =
    [
      base;
      { base with geqs = List.rev base.geqs };
      { base with eqs = base.eqs @ extra.eqs };
      { base with strides = base.strides @ extra.strides };
      C.conjoin base extra;
    ]
  in
  list_size (int_range 0 10) (gen_piece (oneofl variants))

let prop_simplify_groups_as_old =
  to_alcotest
    (QCheck.Test.make ~name:"simplify groups and orders pieces as before"
       ~count:300
       (QCheck.make ~print:Counting.Value.to_string gen_grouped_value)
       (fun v ->
         let want = Old.value_to_string (Old.simplify v) in
         let got = Old.value_to_string (Counting.Value.simplify v) in
         if String.equal want got then true
         else QCheck.Test.fail_reportf "old %S\nnew %S" want got))

(* ------------------------------------------------------------------ *)
(* Engine answers                                                       *)

let both label v =
  check_value label v;
  check_value (label ^ " merged") (Counting.Merge.merge_residues v)

(* Every answer of the 500-seed differential corpus, as counted by the
   default pipeline, merged and unmerged. *)
let test_corpus () =
  for seed = 0 to 499 do
    let case =
      if seed >= 300 then Test_differential.gen_dense_case seed
      else Test_differential.gen_case seed
    in
    Test_differential.reset_world ();
    both
      (Printf.sprintf "corpus seed %d" seed)
      (E.count ~vars:case.Test_differential.vars case.Test_differential.formula)
  done

let query opts q =
  let p = Preslang.parse_query q in
  E.sum ~opts ~vars:p.Preslang.vars p.Preslang.formula p.Preslang.summand

let sor =
  let module L = Loopapps.Loopnest in
  let v s = A.var (V.named s) in
  let k n = A.of_int n in
  let at di dj =
    { L.array = "a"; subscripts = [ A.add_const (v "i") (Zint.of_int di);
                                    A.add_const (v "j") (Zint.of_int dj) ] }
  in
  {
    L.loops =
      [
        L.loop "i" (k 2) (A.add_const (v "N") Zint.minus_one);
        L.loop "j" (k 2) (A.add_const (v "N") Zint.minus_one);
      ];
    guards = [];
    flops_per_iteration = 6;
    accesses = [ at 0 0; at (-1) 0; at 1 0; at 0 (-1); at 0 1 ];
  }

(* The EXPERIMENTS.md rows' values (formulas as in bench/main.ml), plus
   the serve-mixed splinter query, under every strategy where a row
   takes the engine's options. *)
let experiment_values opts =
  let hpf = { Loopapps.Hpf.procs = 8; block = 4 } in
  [
    ("E0 intro 1", query opts "count { i : 1 <= i <= 10 }");
    ("E0 intro 2", query opts "count { i : 1 <= i <= n }");
    ("E0 intro 3", query opts "count { i, j : 1 <= i <= n and 1 <= j <= n }");
    ("E0 intro 4", query opts "count { i, j : 1 <= i < j <= n }");
    ("E0b pitfall", query opts "count { i, j : 1 <= i <= n and i <= j <= m }");
    ( "E0b naive",
      query Counting.Baselines.naive_opts
        "count { i, j : 1 <= i <= n and i <= j <= m }" );
    ( "E1 example 1",
      E.count ~opts ~vars:[ "i"; "j"; "kk" ] Test_parallel.example1_formula );
    ( "E1 Tawbi",
      E.count ~opts:Counting.Baselines.tawbi_opts ~vars:[ "i"; "j"; "kk" ]
        Test_parallel.example1_formula );
    ( "E2 example 2",
      E.count ~opts ~vars:[ "i"; "j"; "kk" ] Test_parallel.example2_formula );
    ( "E3 example 3",
      query opts "count { i, j : 1 <= j <= i <= 2*n and i + j <= 2*n }" );
    ("E4 example 4", E.count ~opts ~vars:[ "x" ] Test_parallel.example4_formula);
    ("E5a SOR memory", Loopapps.Loopnest.touched_count sor ~array:"a");
    ( "E5b SOR cache lines",
      Loopapps.Loopnest.cache_line_count sor ~array:"a" ~words:16 ~base:1 );
    ("E6 example 6", E.count ~opts ~vars:[ "i"; "j" ] Test_parallel.example6_formula);
    ("S33 HPF ownership", Loopapps.Hpf.ownership_count ~opts hpf ~proc:0);
    ("S33 messages", Loopapps.Hpf.messages ~opts hpf ~shift:1);
    ("A5 approx", query opts "sum { i : 1 <= i and 3*i <= n } i");
    ( "A6 approx DNF",
      query opts "count { x : 0 <= x <= n and exists (t : x = 3*t + 2) }" );
    ( "splinter",
      query opts "count { i, j : 1 <= i and j <= n and 97*i <= 101*j }" );
  ]

let test_experiments () =
  List.iter
    (fun (strategy, sname) ->
      Test_differential.reset_world ();
      List.iter
        (fun (name, v) -> both (Printf.sprintf "%s [%s]" name sname) v)
        (experiment_values { E.default with strategy }))
    [ (E.Exact, "exact"); (E.Symbolic, "symbolic"); (E.Upper, "upper");
      (E.Lower, "lower") ]

let suite =
  ( "render",
    [
      prop_value_renders_as_old;
      prop_simplify_groups_as_old;
      Alcotest.test_case "500-seed corpus answers render as the oracle" `Quick
        test_corpus;
      Alcotest.test_case "EXPERIMENTS rows render as the oracle" `Quick
        test_experiments;
    ] )
