(* Exact rationals, normalized: den > 0, gcd (num, den) = 1.

   Integer-valued rationals (den = 1) are the overwhelmingly common case
   — quasi-polynomial coefficients are integral until a Faulhaber or
   Bernoulli division introduces a genuine fraction — so [make] and the
   ring operations take a denominator-one fast path that skips the gcd
   normalization entirely. With the small-integer representation in
   [Zint], the [is_one] tests are O(1) constructor checks. *)

type t = { num : Zint.t; den : Zint.t }

let make num den =
  if Zint.is_one den then { num; den }
  else if Zint.is_zero den then raise Division_by_zero
  else if Zint.is_zero num then { num = Zint.zero; den = Zint.one }
  else begin
    let num, den = if Zint.sign den < 0 then (Zint.neg num, Zint.neg den) else (num, den) in
    let g = Zint.gcd num den in
    if Zint.is_one g then { num; den }
    else { num = Zint.divexact num g; den = Zint.divexact den g }
  end

let zero = { num = Zint.zero; den = Zint.one }
let one = { num = Zint.one; den = Zint.one }
let minus_one = { num = Zint.minus_one; den = Zint.one }

(* Share the three ubiquitous constants instead of allocating a fresh
   record per conversion; [is_zero]/[is_one] are O(1) on small ints. *)
let of_zint n =
  if Zint.is_zero n then zero
  else if Zint.is_one n then one
  else { num = n; den = Zint.one }

let of_int n = of_zint (Zint.of_int n)
let of_ints a b = make (Zint.of_int a) (Zint.of_int b)
let num t = t.num
let den t = t.den
let is_integral t = Zint.is_one t.den
let to_zint t = if is_integral t then Some t.num else None
let is_zero t = Zint.is_zero t.num
let sign t = Zint.sign t.num
let neg t = { t with num = Zint.neg t.num }
let abs t = { t with num = Zint.abs t.num }

let add a b =
  if Zint.is_one a.den && Zint.is_one b.den then
    { num = Zint.add a.num b.num; den = Zint.one }
  else
    make
      (Zint.add (Zint.mul a.num b.den) (Zint.mul b.num a.den))
      (Zint.mul a.den b.den)

let sub a b =
  if Zint.is_one a.den && Zint.is_one b.den then
    { num = Zint.sub a.num b.num; den = Zint.one }
  else add a (neg b)

let mul a b =
  if Zint.is_one a.den && Zint.is_one b.den then
    { num = Zint.mul a.num b.num; den = Zint.one }
  else make (Zint.mul a.num b.num) (Zint.mul a.den b.den)

let inv t =
  if is_zero t then raise Division_by_zero;
  make t.den t.num

let div a b = mul a (inv b)

let mul_zint t z =
  if Zint.is_one t.den then { num = Zint.mul t.num z; den = Zint.one }
  else make (Zint.mul t.num z) t.den

let pow t n =
  if n < 0 then invalid_arg "Qnum.pow: negative exponent";
  { num = Zint.pow t.num n; den = Zint.pow t.den n }

let floor t = if Zint.is_one t.den then t.num else Zint.fdiv t.num t.den
let ceil t = if Zint.is_one t.den then t.num else Zint.cdiv t.num t.den

let compare a b =
  if Zint.is_one a.den && Zint.is_one b.den then Zint.compare a.num b.num
  else Zint.compare (Zint.mul a.num b.den) (Zint.mul b.num a.den)
let equal a b = Zint.equal a.num b.num && Zint.equal a.den b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let to_string t =
  if is_integral t then Zint.to_string t.num
  else Zint.to_string t.num ^ "/" ^ Zint.to_string t.den

let add_to_buffer b t =
  Zint.add_to_buffer b t.num;
  if not (is_integral t) then begin
    Buffer.add_char b '/';
    Zint.add_to_buffer b t.den
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
