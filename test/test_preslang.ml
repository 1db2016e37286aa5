(* Tests for the query-language lexer/parser. *)

module F = Presburger.Formula
module V = Presburger.Var

let z = Zint.of_int

let env_of l name =
  match List.assoc_opt name l with
  | Some x -> z x
  | None -> raise Not_found

let holds s l =
  F.holds (fun v -> env_of l (V.to_string v)) (Preslang.parse_formula s)

let test_comparison_chains () =
  Alcotest.(check bool) "chain true" true
    (holds "1 <= i < j <= n" [ ("i", 1); ("j", 2); ("n", 3) ]);
  Alcotest.(check bool) "chain false" false
    (holds "1 <= i < j <= n" [ ("i", 2); ("j", 2); ("n", 3) ]);
  Alcotest.(check bool) "neq" true (holds "i != j" [ ("i", 1); ("j", 2) ]);
  Alcotest.(check bool) "eq" true (holds "2*i = j" [ ("i", 3); ("j", 6) ]);
  Alcotest.(check bool) "gt/ge" true (holds "j > i and j >= 2" [ ("i", 1); ("j", 2) ])

let test_connectives () =
  Alcotest.(check bool) "and" false
    (holds "i >= 1 and i <= 0" [ ("i", 1) ]);
  Alcotest.(check bool) "or" true
    (holds "i >= 5 or i <= 2" [ ("i", 1) ]);
  Alcotest.(check bool) "not" true (holds "not i = 3" [ ("i", 4) ]);
  Alcotest.(check bool) "symbols" true
    (holds "i >= 1 && (i <= 0 || i = 2)" [ ("i", 2) ]);
  Alcotest.(check bool) "bang" false (holds "!(i = 2)" [ ("i", 2) ])

let test_parenthesized () =
  Alcotest.(check bool) "paren formula" true
    (holds "(i >= 1 and i <= 3)" [ ("i", 2) ]);
  Alcotest.(check bool) "paren expr in chain" true
    (holds "(i + 1) * 2 <= j" [ ("i", 1); ("j", 4) ]);
  Alcotest.(check bool) "nested" true
    (holds "((i >= 1))" [ ("i", 1) ])

let test_quantifiers () =
  Alcotest.(check bool) "exists" true
    (holds "exists (k : 1 <= k <= n and i = 2*k)" [ ("i", 4); ("n", 3) ]);
  Alcotest.(check bool) "exists false" false
    (holds "exists (k : 1 <= k <= n and i = 2*k)" [ ("i", 5); ("n", 3) ]);
  Alcotest.(check bool) "forall" true
    (holds "forall (k : k <= n or k >= 0)" [ ("n", -1) ]);
  Alcotest.(check bool) "forall false" false
    (holds "forall (k : k <= n or k >= 2)" [ ("n", -1) ]);
  Alcotest.(check bool) "two vars" true
    (holds "exists (a, b : i = 3*a + 5*b and a >= 0 and b >= 0)" [ ("i", 8) ])

let test_strides_and_mods () =
  Alcotest.(check bool) "stride" true (holds "3 | i + 1" [ ("i", 2) ]);
  Alcotest.(check bool) "stride false" false (holds "3 | i + 1" [ ("i", 3) ]);
  Alcotest.(check bool) "mod" true (holds "i mod 4 = 1" [ ("i", 9) ]);
  Alcotest.(check bool) "mod neg" true (holds "i mod 4 = 3" [ ("i", -9) ]);
  Alcotest.(check bool) "floor" true
    (holds "floor(n / 3) = 2" [ ("n", 8) ]);
  Alcotest.(check bool) "floor neg" true
    (holds "floor(n / 3) = -3" [ ("n", -7) ]);
  Alcotest.(check bool) "ceil" true (holds "ceil(n / 3) = 3" [ ("n", 7) ])

let test_polynomials () =
  let p = Preslang.parse_poly "i^2 + 2*i*j - 3" in
  let v =
    Qpoly.eval_zint (env_of [ ("i", 2); ("j", 5) ]) p |> Zint.to_int_exn
  in
  Alcotest.(check int) "poly eval" (4 + 20 - 3) v;
  let pm = Preslang.parse_poly "n mod 2 + floor(n / 2)" in
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "mod+floor n=%d" n)
        ((((n mod 2) + 2) mod 2) + (if n >= 0 then n / 2 else -((-n + 1) / 2)))
        (Qpoly.eval_zint (env_of [ ("n", n) ]) pm |> Zint.to_int_exn))
    [ 0; 1; 7; -3 ]

let test_queries () =
  let q = Preslang.parse_query "count { i, j : 1 <= i <= j <= n }" in
  Alcotest.(check (list string)) "vars" [ "i"; "j" ] q.Preslang.vars;
  let value = Counting.Engine.count ~vars:q.Preslang.vars q.Preslang.formula in
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "triangle n=%d" n)
        (n * (n + 1) / 2)
        (Zint.to_int_exn
           (Counting.Value.eval_zint (env_of [ ("n", n) ]) value)))
    [ 1; 3; 6 ];
  let q2 = Preslang.parse_query "sum { i : 1 <= i and 3*i <= n } i^2" in
  let v2 =
    Counting.Engine.sum ~vars:q2.Preslang.vars q2.Preslang.formula
      q2.Preslang.summand
  in
  List.iter
    (fun n ->
      let expected = ref 0 in
      for i = 1 to n / 3 do
        expected := !expected + (i * i)
      done;
      Alcotest.(check int)
        (Printf.sprintf "sum i^2 n=%d" n)
        !expected
        (Zint.to_int_exn
           (Counting.Value.eval_zint (env_of [ ("n", n) ]) v2)))
    [ 3; 10; 17 ]

let test_errors () =
  let bad s =
    try
      ignore (Preslang.parse_formula s);
      false
    with Preslang.Parse_error _ -> true
  in
  Alcotest.(check bool) "dangling op" true (bad "i + ");
  Alcotest.(check bool) "no relop" true (bad "i + 1");
  Alcotest.(check bool) "nonlinear" true (bad "i * j <= 3");
  Alcotest.(check bool) "bad char" true (bad "i # 3");
  Alcotest.(check bool) "unbalanced" true (bad "(i <= 3");
  let badq s =
    try
      ignore (Preslang.parse_query s);
      false
    with Preslang.Parse_error _ -> true
  in
  Alcotest.(check bool) "query keyword" true (badq "tally { i : i <= 3 }");
  Alcotest.(check bool) "missing brace" true (badq "count { i : i <= 3");
  Alcotest.(check bool) "trailing" true (badq "count { i : 1 <= i <= 3 } extra");
  List.iter
    (fun e ->
      Alcotest.(check bool) ("summand " ^ e) true
        (badq ("sum { i : 1 <= i <= 7 } " ^ e)))
    [ "floor(i/0)"; "ceil(i/0)"; "i mod 0" ]

let test_roundtrip_against_builder () =
  (* The Section 2.6 formula fragment built by hand vs parsed. *)
  let parsed =
    Preslang.parse_formula "1 <= i <= 2*n and (exists (j : 2*j = i))"
  in
  List.iter
    (fun (iv, nv) ->
      let expected = 1 <= iv && iv <= 2 * nv && iv mod 2 = 0 in
      Alcotest.(check bool)
        (Printf.sprintf "i=%d n=%d" iv nv)
        expected
        (F.holds
           (fun v -> env_of [ ("i", iv); ("n", nv) ] (V.to_string v))
           parsed))
    [ (2, 3); (3, 3); (6, 3); (7, 3); (0, 3); (8, 3) ]

(* ------------------------------------------------------------------ *)
(* Fuzzing: on any input, [parse_query] returns a query or raises
   [Parse_error] — nothing else may escape into omegad's reader.        *)

let fuzz_seeds =
  [|
    "count { i, j : 1 <= i <= j <= n }";
    "sum { i : 1 <= i and 3*i <= n } i^2";
    "count { i : 1 <= i <= n and floor(i/4) >= 2 and i mod 3 = 0 }";
    "count { i, j : exists (a : 2*a = i) and not (j > n) or 3 | i + 1 }";
    "sum { i : 1 <= i <= n } ceil(i/3) * (i mod 2) - (i + 1)^2";
    "count { x : forall (y : y >= x || y < 0) && !(x != 4) }";
  |]

let fuzz_vocabulary =
  [|
    "count"; "sum"; "{"; "}"; ":"; ","; "i"; "j"; "n"; "<="; "<"; ">=";
    ">"; "="; "!="; "and"; "or"; "not"; "&&"; "||"; "!"; "exists";
    "forall"; "("; ")"; "|"; "mod"; "floor"; "ceil"; "/"; "*"; "^"; "+";
    "-"; "0"; "1"; "3"; "97"; "123456789012345678901234567890"; "#"; "\"";
  |]

let big_int_gen =
  QCheck.Gen.(
    map
      (fun ds -> String.concat "" (List.map string_of_int ds))
      (list_size (int_range 20 300) (int_bound 9)))

let query_fuzz_gen =
  let open QCheck.Gen in
  let seed = oneofa fuzz_seeds in
  let token = oneofa fuzz_vocabulary in
  let printable_char = map Char.chr (int_range 32 126) in
  oneof
    [
      (* token soup *)
      map (String.concat " ") (list_size (int_bound 40) token);
      (* truncated valid queries *)
      (let* s = seed in
       let* k = int_bound (String.length s) in
       return (String.sub s 0 k));
      (* byte flips *)
      (let* s = seed in
       let* flips = list_size (int_range 1 3) (pair (int_bound 1000) printable_char) in
       let b = Bytes.of_string s in
       List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) flips;
       return (Bytes.to_string b));
      (* a stray token spliced in *)
      (let* s = seed in
       let* k = int_bound (String.length s) in
       let* t = token in
       return (String.sub s 0 k ^ " " ^ t ^ " " ^ String.sub s k (String.length s - k)));
      (* deep nesting, balanced or not *)
      (let* d = int_range 1 2000 in
       let* close = bool in
       return
         (Printf.sprintf "count { i : %si >= 1%s }" (String.make d '(')
            (if close then String.make d ')' else "")));
      (* huge coefficients and constants *)
      (let* a = big_int_gen and* b = big_int_gen and* sum = bool in
       return
         (if sum then Printf.sprintf "sum { i : 1 <= i <= %s } %s*i^2 mod %s" b a b
          else Printf.sprintf "count { i : %s*i <= %s and %s | i }" a b a));
      string_size ~gen:printable_char (int_bound 80);
    ]

let fuzz_parse_query =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"parse_query returns or raises Parse_error"
       ~count:1000
       (QCheck.make ~print:(fun s -> s) query_fuzz_gen)
       (fun s ->
         match Preslang.parse_query s with
         | _ -> true
         | exception Preslang.Parse_error _ -> true))

let suite =
  ( "preslang",
    [
      Alcotest.test_case "comparison chains" `Quick test_comparison_chains;
      Alcotest.test_case "connectives" `Quick test_connectives;
      Alcotest.test_case "parentheses disambiguation" `Quick test_parenthesized;
      Alcotest.test_case "quantifiers" `Quick test_quantifiers;
      Alcotest.test_case "strides, mod, floor, ceil" `Quick test_strides_and_mods;
      Alcotest.test_case "summand polynomials" `Quick test_polynomials;
      Alcotest.test_case "full queries through the engine" `Quick test_queries;
      Alcotest.test_case "parse errors" `Quick test_errors;
      Alcotest.test_case "parsed vs built formulas" `Quick
        test_roundtrip_against_builder;
      fuzz_parse_query;
    ] )
