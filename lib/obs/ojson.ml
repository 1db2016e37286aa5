(* The JSON value type, its writer and a recursive-descent reader — see
   ojson.mli. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Lit of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of int * string

(* Whether a decimal literal denotes an integer: no nonzero digit sits
   at or past its decimal point once the exponent has moved the point. *)
let denotes_integer lit =
  let n = String.length lit in
  let rec exp_at i =
    if i = n || lit.[i] = 'e' || lit.[i] = 'E' then i else exp_at (i + 1)
  in
  let e = exp_at 0 in
  let exp =
    if e = n then 0
    else
      let x = String.sub lit (e + 1) (n - e - 1) in
      match int_of_string_opt x with
      | Some v -> v
      | None -> if String.starts_with ~prefix:"-" x then min_int / 2 else max_int / 2
  in
  let point = match String.index_opt lit '.' with Some i when i < e -> i | _ -> e in
  let sign = if n > 0 && (lit.[0] = '-' || lit.[0] = '+') then 1 else 0 in
  (* the [k]th digit is a fraction digit when [k >= p] *)
  let p = point - sign + exp in
  let rec whole i k =
    i = e
    ||
    match lit.[i] with
    | '0' .. '9' as c -> (k < p || c = '0') && whole (i + 1) (k + 1)
    | _ -> whole (i + 1) k
  in
  whole 0 0

(* From 2^52 up every double is an integer, so a literal is its double
   there only when it is that integer's own digits; any other keeps
   its text, so that no integer is rounded or hidden in a fraction.
   Below 2^52 an integral double must be the literal's exact value too,
   or ["1.00000000000000000001"] would read as the integer 1; a literal
   without a point or exponent ([plain]) always is. *)
let float_holds ~plain lit f =
  Float.is_finite f
  &&
  if Float.abs f < 0x1p52 then
    plain || (not (Float.is_integer f)) || denotes_integer lit
  else Printf.sprintf "%.0f" f = lit

(* The JSON number grammar, [-?(0|[1-9][0-9]* )(\.[0-9]+)?([eE][+-]?[0-9]+)?],
   checked only on a literal kept verbatim: [float_of_string] alone
   would let ["+1"], [".5"] or ["01"] through to the output. *)
let json_number lit =
  let n = String.length lit in
  let at i cs = i >= 0 && i < n && String.contains cs lit.[i] in
  let rec digits i = if at i "0123456789" then digits (i + 1) else i in
  (* the end of a nonempty run of digits from [i], or -1 *)
  let run i = if at i "0123456789" then digits i else -1 in
  let i = if at 0 "-" then 1 else 0 in
  let i = if at i "0" then i + 1 else run i in
  let i = if at i "." then run (i + 1) else i in
  let i = if at i "eE" then run (if at (i + 1) "+-" then i + 2 else i + 1) else i in
  i = n

(* Nesting cap: the recursive-descent parser would otherwise turn a
   ["[[[[…"] payload into a stack overflow (a hard crash, not a
   catchable [Error]). 512 is far above anything our emitters produce
   — certificates nest enum-witness cases a handful of levels deep. *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let add_utf8 b u =
    if u < 0x80 then Buffer.add_char b (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (u lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xe0 lor (u lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xf0 lor (u lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some u -> u
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
             let u = hex4 () in
             if u >= 0xd800 && u <= 0xdbff && !pos + 6 <= n
                && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
             then begin
               pos := !pos + 2;
               let lo = hex4 () in
               add_utf8 b
                 (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
             end
             else add_utf8 b u
         | _ -> fail "bad escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let plain = ref true in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
          plain := false;
          true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f when float_holds ~plain:!plain lit f -> Num f
    | Some _ when json_number lit -> Lit lit
    | _ -> fail "bad number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "JSON parse error at %d: %s" at msg)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let member_exn k j =
  match member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Ojson.member_exn: no member %S" k)

let to_float = function
  | Num f -> Some f
  | Lit s -> float_of_string_opt s
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f < 0x1p62 -> Some (int_of_float f)
  | Lit s -> int_of_string_opt s
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_list = function Arr l -> Some l | _ -> None

let obj_keys = function Obj kvs -> List.map fst kvs | _ -> []

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

(* The escape of each byte, or [""] for a byte copied as is: quote,
   backslash and newline get their short forms, every other control
   character a [\u00XX] escape. *)
let escapes =
  Array.init 256 (fun i ->
      match Char.chr i with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | _ when i < 0x20 -> Printf.sprintf "\\u%04x" i
      | _ -> "")

(* Runs of bytes that need no escape go in with one [add_substring];
   [s.[start .. i-1]] is the pending run. A top-level function, so a
   call allocates no closure. *)
let rec add_escaped_from b s start i =
  if i = String.length s then Buffer.add_substring b s start (i - start)
  else
    let e = escapes.(Char.code (String.unsafe_get s i)) in
    if String.length e = 0 then add_escaped_from b s start (i + 1)
    else begin
      Buffer.add_substring b s start (i - start);
      Buffer.add_string b e;
      add_escaped_from b s (i + 1) (i + 1)
    end

let add_escaped b s = add_escaped_from b s 0 0

let add_num b f =
  if not (Float.is_finite f) then
    (* JSON has no NaN/infinity; our emitters never produce them. *)
    Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else begin
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then Buffer.add_string b s
    else Buffer.add_string b (Printf.sprintf "%.17g" f)
  end

let render j =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num f -> add_num b f
    | Lit s -> Buffer.add_string b s
    | Str s ->
        Buffer.add_char b '"';
        add_escaped b s;
        Buffer.add_char b '"'
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            add_escaped b k;
            Buffer.add_string b "\":";
            go v)
          kvs;
        Buffer.add_char b '}'
  in
  go j;
  Buffer.contents b

let obj f kvs = Obj (List.map (fun (k, v) -> (k, f v)) kvs)

let int n = Lit (string_of_int n)

let fixed p x = Lit (Printf.sprintf "%.*f" p x)
