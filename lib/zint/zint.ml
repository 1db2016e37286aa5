(* Arbitrary-precision integers with a small-integer fast path.

   The representation is two-constructor, zarith-style:

     Small n                      -- any value representable as a native
                                     63-bit int (including min_int)
     Big { sign; mag }            -- sign-magnitude, base-2^15 limbs

   with the canonicalization invariant that [Big] is NEVER used for a
   value in the native range: every operation that could shrink a result
   demotes it back to [Small] (see [of_big]). The invariant is what makes
   [equal]/[compare]/[hash]/[to_int] O(1) constructor dispatches, and it
   is enforced property-style by the test suite ([repr_canonical]).

   Arithmetic on two [Small]s runs on native ints with explicit overflow
   checks (sign-bit tricks for add/sub, a magnitude guard for mul) and
   promotes to the limb path only when a check fires. Counting workloads
   spend virtually all their time on word-sized coefficients, so the limb
   machinery below is cold; it is kept byte-identical in behaviour to the
   pre-fast-path implementation.

   Base 2^15 keeps every intermediate product comfortably inside a native
   63-bit int (limb*limb <= 2^30), which lets the schoolbook and Knuth-D
   algorithms below use plain [int] arithmetic with no overflow analysis
   beyond that bound. *)

let bits = 15
let base = 1 lsl bits
let mask = base - 1

type big = { sign : int; mag : int array }
(* Invariants: sign ∈ {-1,1} (a zero magnitude is always [Small 0]);
   limbs are little-endian in [0, base); the most significant limb is
   nonzero; the value is outside [min_int, max_int]. *)

type t = Small of int | Big of big

(* [Small] is a one-field block, so every fast-path result still costs a
   two-word allocation. Counting workloads churn overwhelmingly on tiny
   coefficients (-1, 0, 1, small strides and constants), so results in a
   fixed window come from this table of shared immutable blocks instead —
   the common case allocates nothing at all. *)
let cache_min = -256
let cache_max = 1024
let cache = Array.init (cache_max - cache_min + 1) (fun i -> Small (i + cache_min))

let small n =
  if n >= cache_min && n <= cache_max then Array.unsafe_get cache (n - cache_min)
  else Small n

let zero = small 0
let one = small 1
let two = small 2
let minus_one = small (-1)
let ten = small 10
let of_int n = small n

(* Trim leading (most-significant) zero limbs. *)
let trim mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let t = top (n - 1) in
  if t < 0 then [||] else if t = n - 1 then mag else Array.sub mag 0 (t + 1)

(* Little-endian limbs of |n| for n <> 0 (min_int-safe: accumulates on a
   nonpositive n so the negation never overflows). *)
let mag_of_int n =
  let rec digits n acc =
    if n = 0 then acc else digits (n / base) (-(n mod base) :: acc)
  in
  let ds = List.rev (digits (if n > 0 then -n else n) []) in
  Array.of_list ds

let to_big = function
  | Small 0 -> { sign = 0; mag = [||] }
  | Small n -> { sign = (if n > 0 then 1 else -1); mag = mag_of_int n }
  | Big b -> b

let max_int_mag = mag_of_int Stdlib.max_int
let min_int_mag = mag_of_int Stdlib.min_int

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

(* Native value of a magnitude known to fit (|value| <= -min_int).
   Accumulates -|value| so [min_int] itself never overflows. *)
let int_of_mag sign mag =
  let acc = ref 0 in
  for i = Array.length mag - 1 downto 0 do
    acc := (!acc * base) - mag.(i)
  done;
  if sign >= 0 then - !acc else !acc

(* Canonicalize a nonzero big: demote to [Small] when the value fits the
   native range. The length check settles all but 5-limb magnitudes
   (4 limbs = 60 bits always fit, 6 limbs = 76+ bits never do). *)
let of_big ({ sign; mag } as b) =
  let n = Array.length mag in
  if n = 0 then zero
  else if n <= 4 then small (int_of_mag sign mag)
  else if n >= 6 then Big b
  else if sign > 0 then
    if compare_mag mag max_int_mag <= 0 then small (int_of_mag sign mag)
    else Big b
  else if compare_mag mag min_int_mag <= 0 then small (int_of_mag sign mag)
  else Big b

let mk_big sign mag = if Array.length mag = 0 then zero else of_big { sign; mag }

(* Representation introspection, for the boundary test-suite. *)
let is_small = function Small _ -> true | Big _ -> false

let repr_canonical = function
  | Small _ -> true
  | Big { sign; mag } ->
      (* a canonical Big is trimmed, signed, and out of native range *)
      sign <> 0
      && Array.length mag > 0
      && mag.(Array.length mag - 1) <> 0
      && compare_mag mag (if sign > 0 then max_int_mag else min_int_mag) > 0

let sign = function Small n -> Stdlib.compare n 0 | Big b -> b.sign
let is_zero = function Small 0 -> true | _ -> false
let is_one = function Small 1 -> true | _ -> false

let compare a b =
  match (a, b) with
  | Small x, Small y -> Stdlib.compare x y
  | Small _, Big b -> -b.sign
  | Big b, Small _ -> b.sign
  | Big x, Big y ->
      if x.sign <> y.sign then Stdlib.compare x.sign y.sign
      else if x.sign >= 0 then compare_mag x.mag y.mag
      else compare_mag y.mag x.mag

let equal a b =
  match (a, b) with
  | Small x, Small y -> x = y
  | Big x, Big y -> x.sign = y.sign && compare_mag x.mag y.mag = 0
  | Small _, Big _ | Big _, Small _ -> false

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* The hash is a function of the VALUE, not the constructor: both arms
   fold the base-2^15 limbs of |v| (LSB first) over the same mixing
   formula, seeded by sign+1. Even a hypothetical non-canonical [Big]
   holding a small-range value would therefore agree with its [Small]
   twin — [equal a b] implies [hash a = hash b] by construction, which is
   the invariant the interning and memo tables key on. *)
let hash = function
  | Small 0 -> 1
  | Small n ->
      let seed = if n > 0 then 2 else 0 in
      (* walk a nonpositive accumulator so min_int never overflows *)
      let rec go h n =
        if n = 0 then h else go ((h * 65599) + -(n mod base)) (n / base)
      in
      go seed (if n > 0 then -n else n)
  | Big b ->
      Array.fold_left (fun h limb -> (h * 65599) + limb) (b.sign + 1) b.mag

let neg = function
  | Small n -> if n = Stdlib.min_int then Big { sign = 1; mag = min_int_mag } else small (-n)
  | Big b -> of_big { b with sign = -b.sign }

let abs = function
  | Small n as t -> if n < 0 then neg t else t
  | Big b as t -> if b.sign < 0 then of_big { b with sign = 1 } else t

(* ------------------------------------------------------------------ *)
(* Limb-path kernels (unchanged from the single-representation days)   *)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr bits
  done;
  r.(l) <- !carry;
  trim r

(* Requires [a >= b] limbwise-comparable: compare_mag a b >= 0. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  trim r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let p = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- p land mask;
        carry := p lsr bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    trim r
  end

let add_big ba bb =
  if ba.sign = 0 then of_big bb
  else if bb.sign = 0 then of_big ba
  else if ba.sign = bb.sign then mk_big ba.sign (add_mag ba.mag bb.mag)
  else begin
    let c = compare_mag ba.mag bb.mag in
    if c = 0 then zero
    else if c > 0 then mk_big ba.sign (sub_mag ba.mag bb.mag)
    else mk_big bb.sign (sub_mag bb.mag ba.mag)
  end

(* ------------------------------------------------------------------ *)
(* Ring operations: native fast path, limb slow path                   *)

let add a b =
  match (a, b) with
  | Small x, Small y ->
      let s = x + y in
      (* signed overflow iff both operands disagree in sign with the
         wrapped sum *)
      if (s lxor x) land (s lxor y) < 0 then add_big (to_big a) (to_big b)
      else small s
  | _ -> add_big (to_big a) (to_big b)

let sub a b =
  match (a, b) with
  | Small x, Small y ->
      let d = x - y in
      if (x lxor y) land (x lxor d) < 0 then
        add_big (to_big a) (to_big (neg b))
      else small d
  | _ ->
      let bb = to_big b in
      add_big (to_big a) { bb with sign = -bb.sign }

let succ t = add t one
let pred t = sub t one

(* |x| < 2^31: the product of two such ints is < 2^62, inside the native
   range (max_int = 2^62 - 1 only needs (2^31-1)^2 = 2^62 - 2^32 + 1). *)
let half_range x = x > -0x8000_0000 && x < 0x8000_0000

let mul_big ba bb =
  if ba.sign = 0 || bb.sign = 0 then zero
  else of_big { sign = ba.sign * bb.sign; mag = mul_mag ba.mag bb.mag }

let mul a b =
  match (a, b) with
  | Small 0, _ | _, Small 0 -> zero
  | Small 1, x | x, Small 1 -> x
  | Small (-1), x | x, Small (-1) -> neg x
  | Small x, Small y when half_range x && half_range y -> small (x * y)
  | Small x, Small y ->
      (* y ∉ {0, ±1} here, so the wrapped product overflowed iff
         dividing it back does not return x *)
      let p = x * y in
      if p / y = x then small p else mul_big (to_big a) (to_big b)
  | _ -> mul_big (to_big a) (to_big b)

let mul_int a n = mul a (small n)
let add_int a n = add a (small n)

(* ------------------------------------------------------------------ *)
(* Division                                                            *)

(* Divide a magnitude by a single limb [d] (0 < d < base); returns
   (quotient magnitude, remainder limb). *)
let divmod_small mag d =
  let n = Array.length mag in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl bits) lor mag.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (trim q, !r)

(* Shift a magnitude left by [s] bits, 0 <= s < bits. Always returns
   [n + 1] limbs: Knuth D relies on the extra high limb even when s = 0. *)
let shl_mag mag s =
  let n = Array.length mag in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let v = (mag.(i) lsl s) lor !carry in
    r.(i) <- v land mask;
    carry := v lsr bits
  done;
  r.(n) <- !carry;
  r

(* Shift right by [s] bits, 0 <= s < bits. *)
let shr_mag mag s =
  if s = 0 then trim (Array.copy mag)
  else begin
    let n = Array.length mag in
    let r = Array.make n 0 in
    let carry = ref 0 in
    for i = n - 1 downto 0 do
      let v = (!carry lsl bits) lor mag.(i) in
      r.(i) <- v lsr s;
      carry := v land ((1 lsl s) - 1)
    done;
    trim r
  end

(* Knuth algorithm D on magnitudes. Returns (q, r) with u = q*v + r,
   0 <= r < v. Requires v nonzero. *)
let divmod_mag u v =
  let lv = Array.length v in
  if lv = 0 then raise Division_by_zero
  else if compare_mag u v < 0 then ([||], trim (Array.copy u))
  else if lv = 1 then begin
    let q, r = divmod_small u v.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else begin
    (* Normalize so the top limb of v has its high bit set. *)
    let s =
      let top = v.(lv - 1) in
      let rec go s = if top lsl s >= base / 2 then s else go (s + 1) in
      go 0
    in
    let un = shl_mag u s in
    (* Ensure un has length lu+1 (shl_mag already appends a limb). *)
    let vn = trim (shl_mag v s) in
    let n = Array.length vn in
    let m = Array.length un - 1 - n in
    let q = Array.make (Stdlib.max (m + 1) 1) 0 in
    for j = m downto 0 do
      let top2 = (un.(j + n) lsl bits) lor un.(j + n - 1) in
      let qhat = ref (top2 / vn.(n - 1)) in
      let rhat = ref (top2 mod vn.(n - 1)) in
      if !qhat >= base then begin
        qhat := base - 1;
        rhat := top2 - (!qhat * vn.(n - 1))
      end;
      let continue = ref true in
      while
        !continue
        && !qhat * vn.(n - 2) > (!rhat lsl bits) lor un.(j + n - 2)
      do
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then continue := false
      done;
      (* Multiply-subtract. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * vn.(i)) + !carry in
        carry := p lsr bits;
        let d = un.(i + j) - (p land mask) - !borrow in
        if d < 0 then begin
          un.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          un.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = un.(n + j) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add v back. *)
        un.(n + j) <- d + base;
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let sum = un.(i + j) + vn.(i) + !carry in
          un.(i + j) <- sum land mask;
          carry := sum lsr bits
        done;
        un.(n + j) <- (un.(n + j) + !carry) land mask
      end
      else un.(n + j) <- d;
      q.(j) <- !qhat
    done;
    (trim q, shr_mag (trim (Array.sub un 0 n)) s)
  end

let tdiv_rem a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y ->
      if x = Stdlib.min_int && y = -1 then
        (* the lone Small/Small quotient that overflows: -min_int = 2^62 *)
        (Big { sign = 1; mag = min_int_mag }, zero)
      else (small (x / y), small (x mod y))
  | _ ->
      let ba = to_big a and bb = to_big b in
      if bb.sign = 0 then raise Division_by_zero;
      let qm, rm = divmod_mag ba.mag bb.mag in
      (mk_big (ba.sign * bb.sign) qm, mk_big ba.sign rm)

(* The derived division operators repeat the native fast path rather than
   projecting [tdiv_rem]: on the hot path that skips allocating the
   (quotient, remainder) tuple entirely. [min_int / -1] stays excluded —
   its quotient overflows (and the division instruction traps on it in
   native code) — and falls back to the limb path. *)

let tdiv a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y when not (x = Stdlib.min_int && y = -1) -> small (x / y)
  | _ -> fst (tdiv_rem a b)

let trem a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y when not (x = Stdlib.min_int && y = -1) ->
      small (x mod y)
  | _ -> snd (tdiv_rem a b)

let fdiv_rem a b =
  match (a, b) with
  | Small x, Small y when not (x = Stdlib.min_int && y = -1) ->
      (* native floor adjustment: q-1 can only overflow when q = min_int,
         which forces y = 1 and hence r = 0 (no adjustment) *)
      let q = x / y and r = x mod y in
      if r <> 0 && r < 0 <> (y < 0) then (small (q - 1), small (r + y))
      else (small q, small r)
  | _ ->
      let q, r = tdiv_rem a b in
      if sign r <> 0 && sign r <> sign b then (pred q, add r b) else (q, r)

let fdiv a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y when not (x = Stdlib.min_int && y = -1) ->
      let q = x / y and r = x mod y in
      if r <> 0 && r < 0 <> (y < 0) then small (q - 1) else small q
  | _ -> fst (fdiv_rem a b)

let fmod a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y when not (x = Stdlib.min_int && y = -1) ->
      let r = x mod y in
      if r <> 0 && r < 0 <> (y < 0) then small (r + y) else small r
  | _ -> snd (fdiv_rem a b)

let cdiv a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y when not (x = Stdlib.min_int && y = -1) ->
      (* q + 1 cannot overflow: q = max_int forces y = 1 and hence r = 0 *)
      let q = x / y and r = x mod y in
      if r <> 0 && r < 0 = (y < 0) then small (q + 1) else small q
  | _ ->
      let q, r = tdiv_rem a b in
      if sign r <> 0 && sign r = sign b then succ q else q

let divides c e =
  match (c, e) with
  | Small 0, _ -> is_zero e
  | Small c', Small e' when c' <> -1 -> e' mod c' = 0
  | _ -> is_zero (trem e c)

let divexact a b =
  match (a, b) with
  | Small x, Small y when y <> 0 && not (x = Stdlib.min_int && y = -1) ->
      if x mod y <> 0 then
        invalid_arg "Zint.divexact: division is not exact";
      small (x / y)
  | _ ->
      let q, r = tdiv_rem a b in
      if not (is_zero r) then
        invalid_arg "Zint.divexact: division is not exact";
      q

(* ------------------------------------------------------------------ *)
(* Number theory                                                       *)

let gcd a b =
  match (a, b) with
  | Small x, Small y when x <> Stdlib.min_int && y <> Stdlib.min_int ->
      (* native Euclid on magnitudes (abs is safe away from min_int) *)
      let rec go a b = if b = 0 then a else go b (a mod b) in
      small (go (Stdlib.abs x) (Stdlib.abs y))
  | _ ->
      let rec go a b = if is_zero b then a else go b (trem a b) in
      go (abs a) (abs b)

let lcm a b =
  if is_zero a || is_zero b then zero else abs (mul (tdiv a (gcd a b)) b)

let gcd_ext a b =
  (* Extended Euclid on (a, b); returns (g, x, y), g = a*x + b*y, g >= 0. *)
  let rec go old_r r old_x x old_y y =
    if is_zero r then (old_r, old_x, old_y)
    else begin
      let q = tdiv old_r r in
      go r (sub old_r (mul q r)) x (sub old_x (mul q x)) y (sub old_y (mul q y))
    end
  in
  let g, x, y = go a b one zero zero one in
  if sign g < 0 then (neg g, neg x, neg y) else (g, x, y)

let pow t n =
  if n < 0 then invalid_arg "Zint.pow: negative exponent";
  (* square only while bits remain: the last square would be discarded
     and, near the native range, would promote to the limb path *)
  let rec go acc b n =
    let acc = if n land 1 = 1 then mul acc b else acc in
    if n <= 1 then acc else go acc (mul b b) (n lsr 1)
  in
  go one t n

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)

(* By canonicality, [Big] is always out of native range. *)
let to_int = function Small n -> Some n | Big _ -> None

let to_int_exn = function
  | Small n -> n
  | Big _ -> failwith "Zint.to_int_exn: out of int range"

let to_string = function
  | Small n -> string_of_int n
  | Big { sign; mag } ->
      let buf = Buffer.create 32 in
      let rec chunks mag acc =
        if Array.length mag = 0 then acc
        else begin
          let q, r = divmod_small mag 10000 in
          chunks q (r :: acc)
        end
      in
      (match chunks mag [] with
      | [] -> assert false
      | first :: rest ->
          if sign < 0 then Buffer.add_char buf '-';
          Buffer.add_string buf (string_of_int first);
          List.iter
            (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c))
            rest);
      Buffer.contents buf

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Zint.of_string: empty string";
  let negative, start =
    match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Zint.of_string: no digits";
  let acc = ref zero in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then
      invalid_arg (Printf.sprintf "Zint.of_string: bad character %C" c);
    acc := add_int (mul_int !acc 10) (Char.code c - Char.code '0')
  done;
  if negative then neg !acc else !acc

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = tdiv
  let ( mod ) = trem
  let ( ~- ) = neg
  let ( = ) = equal
  let ( <> ) a b = not (equal a b)
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
