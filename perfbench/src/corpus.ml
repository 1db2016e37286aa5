(* The benchmark's inputs. Every workload draws from here, and every
   random choice comes from a [Random.State] seeded with the workload
   seed, so one seed always yields the same queries, bindings and
   request order.

   paper-batch runs the EXPERIMENTS.md rows plus a seeded draw of
   queries shaped like the differential corpus (test_differential's
   base family). serve-mixed and serve-hot send the omegad request mix
   of BENCH_10.json. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var

(* ------------------------------------------------------------------ *)
(* paper-batch                                                          *)

type input =
  | Text of string  (** a [count]/[sum] query, parsed by [Preslang] *)
  | Built of string list * (unit -> F.t)
      (** summation variables and a formula a library module builds *)
  | Simplify of string  (** a bare formula taken to DNF (Section 2.6) *)
  | Opaque of (unit -> Counting.Value.t)
      (** a whole library call with no per-layer boundary *)

type expect =
  | Sym of string  (** [Value.to_string] of the answer *)
  | Eval of (string * int) list * string  (** the answer at a binding *)
  | Pieces of int  (** number of guarded pieces *)
  | Clauses of int  (** DNF clauses ([Simplify] only) *)
  | Brute of (string * int) list * int * int
      (** equal to [Engine.brute_sum] at the binding, over a box
          [[lo, hi]] of every summation variable *)

type query = {
  row : string;  (** EXPERIMENTS row, or ["generated"] *)
  name : string;  (** unique within the corpus *)
  input : input;
  merge : bool;  (** [Merge.merge_residues] after summing *)
  expect : expect list;
  heavy : bool;  (** hundreds of milliseconds or more *)
}

let q ?(merge = false) ?(heavy = false) row name input expect =
  { row; name; input; merge; expect; heavy }

(* Example 5's SOR nest (bench/main.ml's [sor]). *)
let sor =
  let module L = Loopapps.Loopnest in
  let v s = A.var (V.named s) in
  let c n = A.of_int n in
  let n1 = A.add_const (v "N") Zint.minus_one in
  let sub s d = A.add_const (v s) (Zint.of_int d) in
  {
    L.loops = [ L.loop "i" (c 2) n1; L.loop "j" (c 2) n1 ];
    guards = [];
    flops_per_iteration = 6;
    accesses =
      List.map
        (fun subscripts -> { L.array = "a"; subscripts })
        [
          [ v "i"; v "j" ];
          [ sub "i" (-1); v "j" ];
          [ sub "i" 1; v "j" ];
          [ v "i"; sub "j" (-1) ];
          [ v "i"; sub "j" 1 ];
        ];
  }

(* Section 3.3's HPF ownership count (Loopapps.Hpf.ownership_count for
   8 processors, block 4, processor 0), built through the library's own
   [owner_formula]. *)
let hpf_ownership () =
  let t = A.var (V.named "t") and n = A.var (V.named "n") in
  F.and_
    [
      F.between A.zero t (A.add_const n Zint.minus_one);
      Loopapps.Hpf.owner_formula
        { Loopapps.Hpf.procs = 8; block = 4 }
        ~t ~p:(A.of_int 0);
    ]

let section26 =
  "1 <= i <= 2*n and 1 <= ip <= 2*n and i = ip \
   and not (exists (ipp, jj : 1 <= ipp <= 2*n and 1 <= jj <= n - 1 \
   and i < ipp and ip = ipp and 2*jj = ipp)) \
   and not (exists (ipp, jj : 1 <= ipp <= 2*n and 1 <= jj <= n - 1 \
   and i < ipp and ip = ipp and 2*jj + 1 = ipp))"

(* Differential seed 472, the dense simplex of EXPERIMENTS.md's D1. *)
let dense_d1 =
  "count { x, y, z : -4 <= x <= 4 and -4 <= y <= 4 and -4 <= z <= 4 \
   and 3 | -2*x - y - 3*z - 1 and -2*x + 4*y + 3*z - 1 >= 0 \
   and 4*x + 5*y - z + 10 >= 0 and -2*x + 5*y + 4*z + 4 >= 0 \
   and 3*x - 5*y + z - 1 >= 0 and x + 2*y - z + 1 >= 0 }"

let splinter_query = "count { i, j : 1 <= i and j <= n and 97*i <= 101*j }"

let paper_rows =
  [
    q "E0" "E0.const" (Text "count { i : 1 <= i <= 10 }") [ Sym "(10)" ];
    q "E0" "E0.linear" (Text "count { i : 1 <= i <= n }")
      [ Sym "(sum : n - 1 >= 0 : n)" ];
    q "E0" "E0.square"
      (Text "count { i, j : 1 <= i <= n and 1 <= j <= n }")
      [ Sym "(sum : n - 1 >= 0 : n^2)" ];
    q "E0" "E0.triangular" (Text "count { i, j : 1 <= i < j <= n }")
      [ Sym "(sum : n - 2 >= 0 : 1/2*n^2 - 1/2*n)" ];
    q "E0b" "E0b.pitfall"
      (Text "count { i, j : 1 <= i <= n and i <= j <= m }")
      [ Eval ([ ("n", 5); ("m", 3) ], "6") ];
    q "E1" "E1.tawbi"
      (Text "count { i, j, kk : 1 <= i <= n and 1 <= j <= i and j <= kk <= m }")
      [ Pieces 2; Eval ([ ("n", 10); ("m", 7) ], "224") ];
    q "E2" "E2.hp93a"
      (Text "count { i, j, kk : 1 <= i <= n and 3 <= j <= i and j <= kk <= 5 }")
      [ Pieces 2; Eval ([ ("n", 20) ], "104") ];
    q "E3" "E3.hp93a"
      (Text "count { i, j : 1 <= i <= 2*n and 1 <= j <= i and i + j <= 2*n }")
      [ Sym "(sum : n - 1 >= 0 : n^2)" ];
    q "E4" "E4.fst91"
      (Text
         "count { x : exists (i, j : 1 <= i <= 8 and 1 <= j <= 5 and x = 6*i + 9*j - 7) }")
      [ Sym "(25)" ];
    q "E5a" "E5a.sor_memory"
      (Built
         ( [ Loopapps.Loopnest.elt_var 0; Loopapps.Loopnest.elt_var 1 ],
           fun () -> Loopapps.Loopnest.touched_elements sor ~array:"a" ))
      [ Sym "(sum : N - 3 >= 0 : N^2 - 4)"; Eval ([ ("N", 500) ], "249996") ];
    q "E5b" "E5b.sor_lines"
      (Opaque
         (fun () ->
           Loopapps.Loopnest.cache_line_count sor ~array:"a" ~words:16 ~base:1))
      [ Eval ([ ("N", 500) ], "16000"); Eval ([ ("N", 17) ], "32") ];
    q ~merge:true "E6" "E6.parity"
      (Text "count { i, j : i >= 1 and j <= n and 2*i <= 3*j }")
      [ Sym "(sum : n - 1 >= 0 : 3/4*n^2 - 1/4*(n mod 2) + 1/2*n)" ];
    q "S26" "S26.simplify" (Simplify section26) [ Clauses 12 ];
    q ~heavy:true "S33" "S33.hpf"
      (Built ([ "t" ], hpf_ownership))
      [ Eval ([ ("n", 1025) ], "129") ];
    q ~heavy:true "D1" "D1.dense472" (Text dense_d1) [ Sym "(12)" ];
    q ~heavy:true "splinter" "splinter.97_101" (Text splinter_query)
      [ Brute ([ ("n", 25) ], 0, 30) ];
  ]

(* Rows with a [query.<row>_ms] metric, in EXPERIMENTS.md order. *)
let paper_row_names =
  List.fold_left
    (fun acc q -> if List.mem q.row acc then acc else acc @ [ q.row ])
    [] paper_rows

(* Generated queries: the shape of test_differential's base family
   (box [-4, 4] per variable, 2–4 atoms of coefficient span ±3 —
   equalities, inequalities and strides — some negated, sometimes split
   into a disjunction, sometimes with an existential witness; a quarter
   symbolic in [n]), rendered as Preslang text so the parser is part of
   the measured path. *)

let box_lo = -4

let box_hi = 4

let render_affine terms c0 =
  let b = Buffer.create 32 in
  List.iter
    (fun (c, v) ->
      if Buffer.length b = 0 then
        Buffer.add_string b
          (if c = 1 then v else if c = -1 then "-" ^ v
           else Printf.sprintf "%d*%s" c v)
      else
        Buffer.add_string b
          (Printf.sprintf " %c %s" (if c < 0 then '-' else '+')
             (if abs c = 1 then v else Printf.sprintf "%d*%s" (abs c) v)))
    terms;
  if Buffer.length b = 0 then Buffer.add_string b (string_of_int c0)
  else if c0 <> 0 then
    Buffer.add_string b
      (Printf.sprintf " %c %d" (if c0 < 0 then '-' else '+') (abs c0));
  Buffer.contents b

(* Two random streams: [sh] picks a query's shape (variables, atom
   kinds, negation, disjunction, witness) and is the same for every
   seed; [st] picks the numbers (coefficients, constants, moduli,
   bindings) and follows the seed. So every seed draws the same mix of
   shapes, and a seed changes only the numbers. *)
let gen_affine sh st vars ~symbolic =
  let span = if symbolic then 5 else 7 in
  let coeff () = Random.State.int st span - (span / 2) in
  let terms =
    List.filter_map
      (fun v ->
        let c = coeff () in
        if c = 0 then None else Some (c, v))
      vars
  in
  let terms =
    if symbolic && Random.State.int sh 3 = 0 then
      terms @ [ (1 + Random.State.int st 2, "n") ]
    else terms
  in
  render_affine terms (coeff ())

let gen_atom sh st vars ~symbolic =
  let e = gen_affine sh st vars ~symbolic in
  match Random.State.int sh 4 with
  | 0 -> e ^ " = 0"
  | 1 | 2 -> e ^ " >= 0"
  | _ -> Printf.sprintf "%d | %s" (2 + Random.State.int st 3) e

let gen_query sh st i =
  let symbolic = Random.State.int sh 4 = 0 in
  let nvars = 1 + Random.State.int sh (if symbolic then 2 else 3) in
  let vars = List.filteri (fun i _ -> i < nvars) [ "x"; "y"; "z" ] in
  let natoms = 2 + Random.State.int sh 3 in
  let atoms =
    List.init natoms (fun _ ->
        let a = gen_atom sh st vars ~symbolic in
        if Random.State.int sh 5 = 0 then Printf.sprintf "not (%s)" a else a)
  in
  let body =
    if Random.State.int sh 3 = 0 then
      let l = List.filteri (fun i _ -> i mod 2 = 0) atoms
      and r = List.filteri (fun i _ -> i mod 2 = 1) atoms in
      Printf.sprintf "((%s) or (%s))" (String.concat " and " l)
        (String.concat " and " r)
    else String.concat " and " atoms
  in
  let body =
    if Random.State.int sh 4 = 0 then
      Printf.sprintf
        "%s and exists (w : %d <= w <= %d and %s - %d*w = 0)" body box_lo
        box_hi (List.hd vars)
        (1 + Random.State.int st 3)
    else body
  in
  let boxes =
    List.map (fun v -> Printf.sprintf "%d <= %s <= %d" box_lo v box_hi) vars
  in
  let env = if symbolic then [ ("n", 1 + Random.State.int st 7) ] else [] in
  q "generated"
    (Printf.sprintf "gen.%03d" i)
    (Text
       (Printf.sprintf "count { %s : %s and %s }" (String.concat ", " vars)
          (String.concat " and " boxes)
          body))
    [ Brute (env, box_lo, box_hi) ]

(* An endless seeded stream of generated queries. *)
let generator ~seed =
  let sh = Random.State.make [| 0x5a9e |] in
  let st = Random.State.make [| 0x9a9e4; seed |] in
  let i = ref 0 in
  fun () ->
    incr i;
    gen_query sh st !i

(* ------------------------------------------------------------------ *)
(* serve-mixed / serve-hot                                              *)

(* BENCH_10.json's omegad mix: seven light queries and the splinter
   query. Each entry is the query text, extra request fields, and the
   least [n] binding drawn for it (bindings range over
   [[n_lo, n_lo + n_range)]; the answer is symbolic in [n], so the
   binding changes only the evaluation). *)
type serve_class = {
  cname : string;
  text : string;
  extra : string;  (** further request fields, e.g. a strategy *)
  n_lo : int;
}

let n_range = 100_000

let serve_classes =
  let c cname text ?(extra = "") n_lo = { cname; text; extra; n_lo } in
  [
    c "triangle" "count { i, j : 1 <= i <= j <= n }" 50;
    c "squares" "sum { i : 1 <= i <= n } i^2" 50;
    c "rational" "count { i, j : 1 <= i and j <= n and 2*i <= 3*j }" 50;
    c "tetra" "count { i, j, k : 1 <= i <= j <= k <= n }" 30;
    c "third" "count { i : 1 <= i <= n and 3*i <= 2*n }" 50;
    c "symbolic" "count { i, j : 1 <= i and j <= n and 2*i <= 3*j }"
      ~extra:{|,"strategy":"symbolic"|} 50;
    c "rational35" "count { i, j : 1 <= i and j <= n and 3*i <= 5*j }" 40;
    c "splinter" splinter_query 10;
  ]

let is_splinter c = c.cname = "splinter"

type request = {
  id : int;
  cls : serve_class;
  n : int;
  certify : bool;
  line : string;  (** the exact request line sent *)
}

let request_line ~id cls ~n ~certify =
  Printf.sprintf {|{"id":%d,"query":%S,"at":{"n":%d}%s%s}|} id cls.text n
    cls.extra
    (if certify then {|,"certify":true|} else "")

let make_request ~id cls ~n ~certify =
  { id; cls; n; certify; line = request_line ~id cls ~n ~certify }

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* serve-mixed, for connection [conn] of [conns]: requests in blocks
   of eight, each block one of every class in seeded order; every
   fourth request certifies. A connection's stream depends only on the
   seed and [conn], so it is the same byte for byte on every run. [n]
   bindings never repeat (connections draw from disjoint residues), so
   every answer-cache lookup misses and the engine runs. *)
let mixed_stream ~seed ~conns ~conn =
  let st = Random.State.make [| 0x5e4e; seed; conn |] in
  let block = Array.of_list serve_classes in
  let used = Hashtbl.create 1024 in
  let rec fresh_n cls =
    let n = cls.n_lo + (conns * Random.State.int st (n_range / conns)) + conn in
    if Hashtbl.mem used (cls.cname, n) then fresh_n cls
    else (
      Hashtbl.add used (cls.cname, n) ();
      n)
  in
  let i = ref 0 in
  fun () ->
    let k = !i in
    incr i;
    if k mod Array.length block = 0 then shuffle st block;
    let cls = block.(k mod Array.length block) in
    make_request ~id:((k * conns) + conn) cls ~n:(fresh_n cls)
      ~certify:(k mod 4 = 0)

(* serve-hot: a seeded set of [distinct] light requests, well under the
   default 256-entry answer cache. *)
let hot_set ~seed ~distinct =
  let st = Random.State.make [| 0x407; seed |] in
  let light =
    Array.of_list (List.filter (fun c -> not (is_splinter c)) serve_classes)
  in
  let used = Hashtbl.create 64 in
  let rec draw () =
    let cls = light.(Random.State.int st (Array.length light)) in
    let n = cls.n_lo + Random.State.int st 1000 in
    if Hashtbl.mem used (cls.cname, n) then draw ()
    else (
      Hashtbl.add used (cls.cname, n) ();
      (cls, n))
  in
  Array.init distinct (fun _ -> draw ())

(* serve-hot, for connection [conn]: a seeded walk over the hot set.
   Returns the hot-set index with each request. *)
let hot_stream ~seed ~conns ~conn set =
  let st = Random.State.make [| 0x407a; seed; conn |] in
  let i = ref 0 in
  fun () ->
    let k = !i in
    incr i;
    let h = Random.State.int st (Array.length set) in
    let cls, n = set.(h) in
    (h, make_request ~id:((k * conns) + conn) cls ~n ~certify:false)

(* One request per class at [n = 5], below every stream's range:
   serve-mixed's warm-up, which must not pre-fill any measured answer. *)
let warmup_requests () =
  List.mapi (fun i cls -> make_request ~id:(-1 - i) cls ~n:5 ~certify:false) serve_classes
