module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var

exception Parse_error of int * string

type query = { vars : string list; formula : F.t; summand : Qpoly.t }

(* Expression AST shared by the formula (affine + desugaring) and summand
   (quasi-polynomial) interpretations. *)
type expr =
  | Eint of Zint.t
  | Evar of string
  | Eadd of expr * expr
  | Esub of expr * expr
  | Eneg of expr
  | Emul of expr * expr
  | Epow of expr * int
  | Efloor of expr * Zint.t
  | Eceil of expr * Zint.t
  | Emod of expr * Zint.t

(* ---------------- Parser state ---------------- *)

type state = { toks : (Lexer.token * int) array; mutable pos : int }

let peek st = fst st.toks.(st.pos)
let peek_pos st = snd st.toks.(st.pos)

let peek2 st =
  if st.pos + 1 < Array.length st.toks then fst st.toks.(st.pos + 1)
  else Lexer.EOF

let advance st = st.pos <- st.pos + 1

let expect st tok =
  if peek st = tok then advance st
  else
    raise
      (Parse_error
         ( peek_pos st,
           Printf.sprintf "expected %s but found %s" (Lexer.describe tok)
             (Lexer.describe (peek st)) ))

let fail st msg = raise (Parse_error (peek_pos st, msg))

(* ---------------- Expressions ---------------- *)

let parse_int st =
  match peek st with
  | Lexer.INT z ->
      advance st;
      z
  | t -> fail st (Printf.sprintf "expected an integer, found %s" (Lexer.describe t))

let rec parse_expr st =
  let lhs = parse_term st in
  let rec loop lhs =
    match peek st with
    | Lexer.PLUS ->
        advance st;
        loop (Eadd (lhs, parse_term st))
    | Lexer.MINUS ->
        advance st;
        loop (Esub (lhs, parse_term st))
    | _ -> lhs
  in
  loop lhs

and parse_term st =
  let lhs = parse_factor st in
  let rec loop lhs =
    match peek st with
    | Lexer.STAR ->
        advance st;
        loop (Emul (lhs, parse_factor st))
    | Lexer.KW_MOD ->
        advance st;
        let c = parse_int st in
        loop (Emod (lhs, c))
    | _ -> lhs
  in
  loop lhs

and parse_factor st =
  let base = parse_atom st in
  match peek st with
  | Lexer.CARET ->
      advance st;
      let e = parse_int st in
      (match Zint.to_int e with
      | Some n when n >= 0 -> Epow (base, n)
      | _ -> fail st "exponent must be a small nonnegative integer")
  | _ -> base

and parse_atom st =
  match peek st with
  | Lexer.INT z ->
      advance st;
      Eint z
  | Lexer.IDENT v ->
      advance st;
      Evar v
  | Lexer.MINUS ->
      advance st;
      Eneg (parse_factor st)
  | Lexer.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Lexer.RPAREN;
      e
  | Lexer.KW_FLOOR | Lexer.KW_CEIL ->
      let ceil = peek st = Lexer.KW_CEIL in
      advance st;
      expect st Lexer.LPAREN;
      let e = parse_expr st in
      expect st Lexer.SLASH;
      let c = parse_int st in
      expect st Lexer.RPAREN;
      if ceil then Eceil (e, c) else Efloor (e, c)
  | t -> fail st (Printf.sprintf "expected an expression, found %s" (Lexer.describe t))

(* ---------------- Formulas ---------------- *)

(* Linearization context: wildcards and their defining constraints
   introduced while desugaring floor/ceil/mod (Section 3.1). *)
type linctx = { mutable lwilds : V.t list; mutable defs : F.t list }

let rec linearize st ctx = function
  | Eint z -> A.const z
  | Evar v -> A.var (V.named v)
  | Eadd (a, b) -> A.add (linearize st ctx a) (linearize st ctx b)
  | Esub (a, b) -> A.sub (linearize st ctx a) (linearize st ctx b)
  | Eneg a -> A.neg (linearize st ctx a)
  | Emul (a, b) -> begin
      let la = linearize st ctx a and lb = linearize st ctx b in
      if A.is_const la then A.scale (A.constant la) lb
      else if A.is_const lb then A.scale (A.constant lb) la
      else fail st "nonlinear term in a constraint"
    end
  | Epow (a, n) -> begin
      let la = linearize st ctx a in
      if A.is_const la then A.const (Zint.pow (A.constant la) n)
      else if n = 1 then la
      else fail st "nonlinear power in a constraint"
    end
  | Efloor (e, c) ->
      if Zint.sign c <= 0 then fail st "floor divisor must be positive";
      let le = linearize st ctx e in
      let q = V.fresh_wild () in
      let cq = A.scale c (A.var q) in
      ctx.lwilds <- q :: ctx.lwilds;
      ctx.defs <-
        F.and_ [ F.geq le cq; F.leq le (A.add_const cq (Zint.pred c)) ]
        :: ctx.defs;
      A.var q
  | Eceil (e, c) ->
      if Zint.sign c <= 0 then fail st "ceil divisor must be positive";
      let le = linearize st ctx e in
      let q = V.fresh_wild () in
      let cq = A.scale c (A.var q) in
      ctx.lwilds <- q :: ctx.lwilds;
      ctx.defs <-
        F.and_
          [ F.leq le cq; F.geq le (A.add_const cq (Zint.succ (Zint.neg c))) ]
        :: ctx.defs;
      A.var q
  | Emod (e, c) ->
      if Zint.sign c <= 0 then fail st "mod divisor must be positive";
      let le = linearize st ctx e in
      let q = V.fresh_wild () in
      let cq = A.scale c (A.var q) in
      ctx.lwilds <- q :: ctx.lwilds;
      ctx.defs <-
        F.and_ [ F.geq le cq; F.leq le (A.add_const cq (Zint.pred c)) ]
        :: ctx.defs;
      A.sub le cq

let close_ctx ctx atom_formula =
  match ctx.lwilds with
  | [] -> atom_formula
  | ws -> F.exists ws (F.and_ (atom_formula :: ctx.defs))

type relop = Rle | Rlt | Rge | Rgt | Req | Rne

let relop_of_token = function
  | Lexer.LE -> Some Rle
  | Lexer.LT -> Some Rlt
  | Lexer.GE -> Some Rge
  | Lexer.GT -> Some Rgt
  | Lexer.EQ -> Some Req
  | Lexer.NE -> Some Rne
  | _ -> None

let apply_rel op a b =
  match op with
  | Rle -> F.leq a b
  | Rlt -> F.lt a b
  | Rge -> F.geq a b
  | Rgt -> F.gt a b
  | Req -> F.eq a b
  | Rne -> F.neq a b

let rec parse_formula_d st =
  let lhs = parse_formula_c st in
  let rec loop acc =
    match peek st with
    | Lexer.KW_OR | Lexer.BARBAR ->
        advance st;
        loop (parse_formula_c st :: acc)
    | _ -> List.rev acc
  in
  match loop [ lhs ] with [ f ] -> f | fs -> F.or_ fs

and parse_formula_c st =
  let lhs = parse_formula_u st in
  let rec loop acc =
    match peek st with
    | Lexer.KW_AND | Lexer.AMPAMP ->
        advance st;
        loop (parse_formula_u st :: acc)
    | _ -> List.rev acc
  in
  match loop [ lhs ] with [ f ] -> f | fs -> F.and_ fs

and parse_formula_u st =
  match peek st with
  | Lexer.KW_NOT | Lexer.BANG ->
      advance st;
      F.not_ (parse_formula_u st)
  | Lexer.KW_EXISTS | Lexer.KW_FORALL ->
      let univ = peek st = Lexer.KW_FORALL in
      advance st;
      expect st Lexer.LPAREN;
      let vars = parse_varlist st in
      expect st Lexer.COLON;
      let body = parse_formula_d st in
      expect st Lexer.RPAREN;
      let vs = List.map V.named vars in
      if univ then F.forall vs body else F.exists vs body
  | Lexer.INT _ when peek2 st = Lexer.BAR ->
      (* stride: INT '|' expr *)
      let c = parse_int st in
      expect st Lexer.BAR;
      let ctx = { lwilds = []; defs = [] } in
      let e = linearize st ctx (parse_expr st) in
      if Zint.sign c <= 0 then fail st "stride modulus must be positive";
      close_ctx ctx (F.stride c e)
  | Lexer.LPAREN -> begin
      (* Could be a parenthesized formula or a parenthesized expression
         starting a comparison chain; try the chain first, backtrack. *)
      let save = st.pos in
      match parse_chain st with
      | f -> f
      | exception Parse_error _ ->
          st.pos <- save;
          advance st;
          let f = parse_formula_d st in
          expect st Lexer.RPAREN;
          f
    end
  | _ -> parse_chain st

and parse_chain st =
  let ctx = { lwilds = []; defs = [] } in
  let first = linearize st ctx (parse_expr st) in
  let rec loop prev acc =
    match relop_of_token (peek st) with
    | Some op ->
        advance st;
        let next = linearize st ctx (parse_expr st) in
        loop next (apply_rel op prev next :: acc)
    | None -> List.rev acc
  in
  match loop first [] with
  | [] -> fail st "expected a comparison operator"
  | atoms -> close_ctx ctx (F.and_ atoms)

and parse_varlist st =
  let rec loop acc =
    match peek st with
    | Lexer.IDENT v -> begin
        advance st;
        match peek st with
        | Lexer.COMMA ->
            advance st;
            loop (v :: acc)
        | _ -> List.rev (v :: acc)
      end
    | t ->
        fail st (Printf.sprintf "expected a variable name, found %s" (Lexer.describe t))
  in
  loop []

(* ---------------- Summand polynomials ---------------- *)

let rec to_qpoly st = function
  | Eint z -> Qpoly.const (Qnum.of_zint z)
  | Evar v -> Qpoly.var v
  | Eadd (a, b) -> Qpoly.add (to_qpoly st a) (to_qpoly st b)
  | Esub (a, b) -> Qpoly.sub (to_qpoly st a) (to_qpoly st b)
  | Eneg a -> Qpoly.neg (to_qpoly st a)
  | Emul (a, b) -> Qpoly.mul (to_qpoly st a) (to_qpoly st b)
  | Epow (a, n) -> Qpoly.pow (to_qpoly st a) n
  | Emod (_, c) when Zint.sign c <= 0 -> fail st "mod divisor must be positive"
  | Efloor (_, c) when Zint.sign c <= 0 ->
      fail st "floor divisor must be positive"
  | Eceil (_, c) when Zint.sign c <= 0 -> fail st "ceil divisor must be positive"
  | Emod (e, c) -> begin
      match Qpoly.to_lin (to_qpoly st e) with
      | None -> fail st "mod argument must be affine"
      | Some l -> begin
          match Qpoly.Atom.modulo l c with
          | `Atom a -> Qpoly.atom a
          | `Const z -> Qpoly.const (Qnum.of_zint z)
        end
    end
  | Efloor (e, c) -> begin
      (* floor(e/c) = (e - e mod c)/c *)
      let p = to_qpoly st e in
      match Qpoly.to_lin p with
      | None -> fail st "floor argument must be affine"
      | Some l ->
          let m =
            match Qpoly.Atom.modulo l c with
            | `Atom a -> Qpoly.atom a
            | `Const z -> Qpoly.const (Qnum.of_zint z)
          in
          Qpoly.scale (Qnum.make Zint.one c) (Qpoly.sub p m)
    end
  | Eceil (e, c) -> begin
      (* ceil(e/c) = (e + (-e) mod c)/c *)
      let p = to_qpoly st e in
      match Qpoly.to_lin p with
      | None -> fail st "ceil argument must be affine"
      | Some l ->
          let m =
            match Qpoly.Atom.modulo (Qpoly.Lin.neg l) c with
            | `Atom a -> Qpoly.atom a
            | `Const z -> Qpoly.const (Qnum.of_zint z)
          in
          Qpoly.scale (Qnum.make Zint.one c) (Qpoly.add p m)
    end

(* ---------------- Entry points ---------------- *)

let state_of_string s =
  match Lexer.tokenize s with
  | toks -> { toks = Array.of_list toks; pos = 0 }
  | exception Lexer.Error (pos, msg) -> raise (Parse_error (pos, msg))

let parse_formula s =
  let st = state_of_string s in
  let f = parse_formula_d st in
  expect st Lexer.EOF;
  f

let parse_poly s =
  let st = state_of_string s in
  let p = to_qpoly st (parse_expr st) in
  expect st Lexer.EOF;
  p

let parse_query s =
  let st = state_of_string s in
  let kind =
    match peek st with
    | Lexer.KW_COUNT ->
        advance st;
        `Count
    | Lexer.KW_SUM ->
        advance st;
        `Sum
    | t ->
        fail st
          (Printf.sprintf "expected 'count' or 'sum', found %s"
             (Lexer.describe t))
  in
  expect st Lexer.LBRACE;
  let vars = parse_varlist st in
  expect st Lexer.COLON;
  let formula = parse_formula_d st in
  expect st Lexer.RBRACE;
  let summand =
    match kind with
    | `Count -> Qpoly.one
    | `Sum -> to_qpoly st (parse_expr st)
  in
  expect st Lexer.EOF;
  { vars; formula; summand }
