(* Benchmark harness for the paper's evaluation: the worked examples
   E0–E6, §2.6 and §3.3, each set beside the prior method it improves on
   (Tawbi, HP93a, FST91) — DESIGN.md §4, EXPERIMENTS.md.

   Every output is derived from one table of experiment rows:
   - the reproduction report, which is also the `--check` pass: each
     value a row prints is compared with the one EXPERIMENTS.md records;
   - the instrumented lines (one [Instr] report per row, cold caches),
     the memo ablation, the report cards and the untimed certify pass;
   - the comparison lines (counting backends, planner, governor and
     telemetry overhead), all made by one helper that asserts
     byte-identical values before it times anything. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module E = Counting.Engine
module L = Loopapps.Loopnest
module J = Obs.Ojson

(* One bench JSON line: its label, then the fields in order. *)
let line label fields = J.Obj (("label", J.Str label) :: fields)

let v s = A.var (V.named s)
let k n = A.of_int n

let env_of l name = Zint.of_int (List.assoc name l)

(* Renderings of a measured value, as the report prints and checks them. *)
let sym = Counting.Value.to_string
let length l = string_of_int (List.length l)

let at l value =
  string_of_int (Zint.to_int_exn (Counting.Value.eval_zint (env_of l) value))

let q_at l value = Qnum.to_string (Counting.Value.eval (env_of l) value)

(* ------------------------------------------------------------------ *)
(* Formulas                                                             *)

(* A single-formula count. Its fingerprint joins the instrumented line,
   the report card and the certificate; [at] is the certificate's
   evaluation point; [merge] is whether the answer is residue-merged. *)
type spec = {
  vars : string list;
  formula : F.t;
  at : (string * int) list;
  merge : bool;
}

let counted s opts =
  let value = E.count ~opts ~vars:s.vars s.formula in
  if s.merge then Counting.Merge.merge_residues value else value

let intro =
  [
    ("count { i : 1 <= i <= 10 }", "(10)");
    ("count { i : 1 <= i <= n }", "(sum : n - 1 >= 0 : n)");
    ("count { i, j : 1 <= i <= n and 1 <= j <= n }", "(sum : n - 1 >= 0 : n^2)");
    ( "count { i, j : 1 <= i < j <= n }",
      "(sum : n - 2 >= 0 : 1/2*n^2 - 1/2*n)" );
  ]

let run_query ?(opts = E.default) q =
  let p = Preslang.parse_query q in
  E.sum ~opts ~vars:p.Preslang.vars p.Preslang.formula p.Preslang.summand

let pitfall = "count { i, j : 1 <= i <= n and i <= j <= m }"

let spec ?(merge = false) vars at formula = { vars; formula; at; merge }

let e1 =
  spec [ "i"; "j"; "kk" ] [ ("n", 10); ("m", 7) ]
    (F.and_
       [
         F.between (k 1) (v "i") (v "n");
         F.between (k 1) (v "j") (v "i");
         F.between (v "j") (v "kk") (v "m");
       ])

let e2 =
  spec e1.vars [ ("n", 20) ]
    (F.and_
       [
         F.between (k 1) (v "i") (v "n");
         F.between (k 3) (v "j") (v "i");
         F.between (v "j") (v "kk") (k 5);
       ])

let e4 =
  spec [ "x" ] []
    (F.exists
       [ V.named "i"; V.named "j" ]
       (F.and_
          [
            F.between (k 1) (v "i") (k 8);
            F.between (k 1) (v "j") (k 5);
            F.eq (v "x")
              (A.add_const
                 (A.add (A.scale (Zint.of_int 6) (v "i"))
                    (A.scale (Zint.of_int 9) (v "j")))
                 (Zint.of_int (-7)));
          ]))

let e6 =
  spec ~merge:true [ "i"; "j" ] [ ("n", 100) ]
    (F.and_
       [
         F.geq (v "i") (k 1);
         F.leq (v "j") (v "n");
         F.leq (A.scale Zint.two (v "i")) (A.scale (Zint.of_int 3) (v "j"));
       ])

let sor =
  {
    L.loops =
      [
        L.loop "i" (k 2) (A.add_const (v "N") Zint.minus_one);
        L.loop "j" (k 2) (A.add_const (v "N") Zint.minus_one);
      ];
    guards = [];
    flops_per_iteration = 6;
    accesses =
      [
        { L.array = "a"; subscripts = [ v "i"; v "j" ] };
        { L.array = "a"; subscripts = [ A.add_const (v "i") Zint.minus_one; v "j" ] };
        { L.array = "a"; subscripts = [ A.add_const (v "i") Zint.one; v "j" ] };
        { L.array = "a"; subscripts = [ v "i"; A.add_const (v "j") Zint.minus_one ] };
        { L.array = "a"; subscripts = [ v "i"; A.add_const (v "j") Zint.one ] };
      ];
  }

(* Differential seed 472: box [-4,4]^3, 3 | -2x - y - 3z - 1, and five
   dense rows. Kept in sync with test_differential.gen_dense_case by the
   D1 row's value check (brute-force count over the box is 12). *)
let dense_simplex_formula =
  let lin cx cy cz c0 =
    let term c x = A.scale (Zint.of_int c) (v x) in
    A.add_const
      (A.add (term cx "x") (A.add (term cy "y") (term cz "z")))
      (Zint.of_int c0)
  in
  let geq cx cy cz c0 = F.geq (lin cx cy cz c0) A.zero in
  F.and_
    [
      F.between (k (-4)) (v "x") (k 4);
      F.between (k (-4)) (v "y") (k 4);
      F.between (k (-4)) (v "z") (k 4);
      F.stride (Zint.of_int 3) (lin (-2) (-1) (-3) (-1));
      geq (-2) 4 3 (-1);
      geq 4 5 (-1) 10;
      geq (-2) 5 4 4;
      geq 3 (-5) 1 (-1);
      geq 1 2 (-1) 1;
    ]

(* Section 2.6 formula (the 12 ms simplification on a 1992 Sun SPARC). *)
let section26_formula =
  let i' = V.named "i'" in
  let ai' = A.var i' and ai = v "i" and an = v "n" in
  let not_ex parity =
    let i'' = V.named "i''" and jj = V.named "jj" in
    F.not_
      (F.exists [ i''; jj ]
         (F.and_
            [
              F.between (k 1) (A.var i'') (A.scale Zint.two an);
              F.between (k 1) (A.var jj) (A.add_const an Zint.minus_one);
              F.lt ai (A.var i'');
              F.eq ai' (A.var i'');
              (match parity with
              | `Even -> F.eq (A.scale Zint.two (A.var jj)) (A.var i'')
              | `Odd ->
                  F.eq
                    (A.add_const (A.scale Zint.two (A.var jj)) Zint.one)
                    (A.var i''));
            ]))
  in
  F.and_
    [
      F.between (k 1) ai (A.scale Zint.two an);
      F.between (k 1) ai' (A.scale Zint.two an);
      F.eq ai ai';
      not_ex `Even;
      not_ex `Odd;
    ]

let hpf = { Loopapps.Hpf.procs = 8; block = 4 }
let ownership opts = Loopapps.Hpf.ownership_count ~opts hpf ~proc:0
let dense opts = E.count ~opts ~vars:[ "x"; "y"; "z" ] dense_simplex_formula

(* Figure 1's projections of ∃β. 0 ≤ 3β − α ≤ 7 ∧ 1 ≤ α − 2β ≤ 5 as
   the paper draws them, pre-filter disarmed: armed, the disjoint
   projection also proves the third splinter (alpha = 4 with 3 | alpha)
   infeasible and drops it. *)
let fig1_project mode =
  let beta = V.fresh_wild () in
  let ab = A.var beta and aa = v "alpha" in
  let cl =
    Omega.Clause.make
      ~geqs:
        [
          A.sub (A.scale (Zint.of_int 3) ab) aa;
          A.sub (A.add_const aa (Zint.of_int 7)) (A.scale (Zint.of_int 3) ab);
          A.add_const (A.sub aa (A.scale Zint.two ab)) Zint.minus_one;
          A.sub (A.add_const aa (Zint.of_int 5)) (A.scale Zint.two ab);
        ]
      ()
  in
  Omega.Prefilter.with_armed false (fun () ->
      Omega.Solve.project mode [ beta ] cl)

let overlap_boxes kk =
  List.init kk (fun t ->
      Omega.Clause.make
        ~geqs:
          [
            A.add_const (v "i") (Zint.of_int (-(3 * t)));
            A.sub (k ((3 * t) + 5)) (v "i");
          ]
        ())

let stencils =
  [
    ("4-point", [ [| 0; 0 |]; [| 1; 0 |]; [| 0; 1 |]; [| 1; 1 |] ]);
    ("5-point", [ [| 0; 0 |]; [| -1; 0 |]; [| 1; 0 |]; [| 0; -1 |]; [| 0; 1 |] ]);
    ( "9-point",
      List.concat_map
        (fun a -> List.map (fun b -> [| a; b |]) [ -1; 0; 1 ])
        [ -1; 0; 1 ] );
  ]

(* ------------------------------------------------------------------ *)
(* The experiment table                                                 *)

(* [run opts] does the row's computation and returns its rendered
   values, lazily: the timed passes never pay for rendering. [expect]
   names each value with the one EXPERIMENTS.md records. *)
type row = {
  label : string;
  title : string;
  spec : spec option;
  expect : (string * string) list;
  run : E.options -> string list Lazy.t;
}

let row ?spec label title expect run = { label; title; spec; expect; run }
let show fs x = lazy (List.map (fun f -> f x) fs)

let rows =
  let nm53 = [ ("n", 5); ("m", 3) ] and n20 = [ ("n", 20) ] in
  let n1025 = [ ("n", 1025) ] and strategies = [ E.Lower; E.Exact; E.Upper ] in
  [
    row "E0_intro_table" "Introduction's table of sums" intro (fun opts ->
        let values = List.map (fun (q, _) -> run_query ~opts q) intro in
        lazy (List.map sym values));
    row "E0b_pitfall" ("Mathematica pitfall: " ^ pitfall)
      [ ("guarded at (n=5,m=3), the truth", "6"); ("unguarded (Mathematica)", "5") ]
      (fun opts ->
        let guarded = run_query ~opts pitfall in
        let naive = run_query ~opts:Counting.Baselines.naive_opts pitfall in
        lazy [ at nm53 guarded; at nm53 naive ]);
    row ~spec:e1 "E1_example1" "Example 1, flexible elimination order"
      [ ("pieces (paper: 2)", "2"); ("value at (n=10,m=7)", "224") ]
      (fun opts -> show [ length; at e1.at ] (counted e1 opts));
    row "E1_tawbi" "Example 1, Tawbi's fixed order"
      [ ("pieces (paper: 3)", "3"); ("value at (n=10,m=7)", "224") ]
      (fun _ ->
        show [ length; at e1.at ] (counted e1 Counting.Baselines.tawbi_opts));
    row ~spec:e2 "E2_example2" "Example 2 (HP93a): paper 6n-16 for n >= 5"
      [ ("value at n=20", "104"); ("pieces", "2") ]
      (fun opts -> show [ at e2.at; length ] (counted e2 opts));
    row "E3_example3" "Example 3 (HP93a): paper n^2"
      [ ("symbolic", "(sum : n - 1 >= 0 : n^2)") ]
      (fun opts ->
        show [ sym ]
          (run_query ~opts "count { i, j : 1 <= j <= i <= 2*n and i + j <= 2*n }"));
    row ~spec:e4 "E4_example4" "Example 4 (FST91): paper 25 distinct locations"
      [ ("symbolic", "(25)") ]
      (fun opts -> show [ sym ] (counted e4 opts));
    row "E5a_sor_memory" "Example 5 (SOR) memory: paper N^2-4"
      [ ("symbolic", "(sum : N - 3 >= 0 : N^2 - 4)"); ("at N=500", "249996") ]
      (fun _ -> show [ sym; at [ ("N", 500) ] ] (L.touched_count sor ~array:"a"));
    row "E5b_sor_cache_lines" "Example 5 cache lines, 16-word lines"
      [ ("at N=500 (paper: 16000)", "16000"); ("at N=17 (paper's form: 32)", "32") ]
      (fun _ ->
        show [ at [ ("N", 500) ]; at [ ("N", 17) ] ]
          (L.cache_line_count sor ~array:"a" ~words:16 ~base:1));
    row ~spec:e6 "E6_example6" "Example 6: paper (3n^2+2n-(n mod 2))/4"
      [ ("merged symbolic", "(sum : n - 1 >= 0 : 3/4*n^2 - 1/4*(n mod 2) + 1/2*n)") ]
      (fun opts -> show [ sym ] (counted e6 opts));
    row "S26_simplify" "Section 2.6 simplification (12 ms on a 1992 SPARC)"
      [ ("clauses", "12") ]
      (fun _ -> show [ length ] (Omega.Dnf.of_formula section26_formula));
    row "S33_hpf_ownership" "Section 3.3 HPF block-cyclic, 8 procs, block 4"
      [ ("cells of T(0:1024) proc 0 owns", "129") ]
      (fun opts -> show [ at n1025 ] (ownership opts));
    row "S33_messages" "Section 3.3 messages for a(i) = b(i+1)"
      [ ("boundary-crossing elements at n=1025", "256") ]
      (fun opts -> show [ at n1025 ] (Loopapps.Hpf.messages ~opts hpf ~shift:1));
    row "F1_fig1_splinter" "Figure 1: overlapping vs disjoint splintering"
      [ ("overlapping clauses", "3"); ("disjoint clauses", "3");
        ("pairwise disjoint", "true") ]
      (fun _ ->
        let over = fig1_project Omega.Solve.Exact_overlapping in
        let disj = fig1_project Omega.Solve.Exact_disjoint in
        let disjoint = Omega.Disjoint.pairwise_disjoint disj in
        lazy [ length over; length disj; string_of_bool disjoint ]);
    row "A3_fst91" "FST91 inclusion-exclusion vs disjoint DNF, k = 2..5 boxes"
      [ ("FST91 summations", "3,7,15,31"); ("disjoint DNF clauses", "2,3,3,4") ]
      (fun _ ->
        let boxes = List.map overlap_boxes [ 2; 3; 4; 5 ] in
        let fst91 b = snd (Counting.Baselines.fst91_sum ~vars:[ "i" ] b Qpoly.one) in
        let disjoint b = List.length (Omega.Disjoint.to_disjoint b) in
        let sums = List.map fst91 boxes and clauses = List.map disjoint boxes in
        let ints l = String.concat "," (List.map string_of_int l) in
        lazy [ ints sums; ints clauses ]);
    row "A4_stencil" "Stencil summarization (Sec 5.1)"
      (List.map (fun (name, _) -> (name, "hull+lattice exact")) stencils)
      (fun _ ->
        let summary (_, o) = Loopapps.Stencil.hull_summary o <> None in
        let exact = List.map summary stencils in
        let say b = if b then "hull+lattice exact" else "0-1 encoding" in
        lazy (List.map say exact));
    row "A5_approx" "Approximate counting, sum_{i=1}^{floor(n/3)} i at n=20"
      [ ("lower", "21"); ("exact", "21"); ("upper", "230/9") ]
      (fun opts ->
        let sum strategy =
          run_query ~opts:{ opts with strategy } "sum { i : 1 <= i and 3*i <= n } i"
        in
        let values = List.map sum strategies in
        lazy (List.map (q_at n20) values));
    row "A6_approx_dnf" "Approximate DNF (Sec 4.6): |{x in [0,n] : x = 2 mod 3}|"
      [ ("dark shadow", "19/3"); ("exact", "7"); ("real shadow", "7") ]
      (fun opts ->
        let count strategy =
          run_query ~opts:{ opts with strategy }
            "count { x : 0 <= x <= n and exists (t : x = 3*t + 2) }"
        in
        let values = List.map count strategies in
        lazy (List.map (q_at n20) values));
    row "A1_redundancy" "Ablation on Example 1: convex-phase redundancy elimination"
      [ ("on: pieces, bound splits", "2, 1"); ("off: pieces, bound splits", "2, 1") ]
      (fun opts ->
        let stats eliminate_redundant =
          let s = E.new_stats () in
          let opts = { opts with eliminate_redundant } in
          ignore (E.count ~opts ~stats:s ~vars:e1.vars e1.formula);
          Printf.sprintf "%d, %d" s.E.pieces s.E.bound_splits
        in
        let on = stats true and off = stats false in
        lazy [ on; off ]);
    row "D1_dense" "Dense simplex (differential seed 472): brute force 12"
      [ ("count", "(12)") ]
      (fun opts -> show [ sym ] (dense opts));
  ]

let row_named label = List.find (fun r -> r.label = label) rows

(* ------------------------------------------------------------------ *)
(* Reproduction report and check                                        *)

(* One pass over the table: each row runs once, prints its values and
   compares every one with EXPERIMENTS.md. Only the wall time is
   printed unchecked. Returns whether every value matched. *)
let check_results () =
  let rule = String.make 72 '-' in
  Printf.printf "%s\nReproduction report (measured vs EXPERIMENTS.md)\n%s\n" rule
    rule;
  let matches =
    List.concat_map
      (fun r ->
        let t0 = Unix.gettimeofday () in
        let measured = Lazy.force (r.run E.default) in
        Printf.printf "\n[%s] %s (%.1f ms)\n" r.label r.title
          ((Unix.gettimeofday () -. t0) *. 1000.);
        List.map2
          (fun (name, expected) got ->
            let ok = String.equal expected got in
            Printf.printf "  %-40s %s%s\n" name got
              (if ok then "" else "   MISMATCH, EXPERIMENTS.md has " ^ expected);
            ok)
          r.expect measured)
      rows
  in
  let bad = List.length (List.filter not matches) in
  Printf.printf "\nReproduction check: %d/%d values match EXPERIMENTS.md\n%s\n\n"
    (List.length matches - bad) (List.length matches) rule;
  bad = 0

(* Every committed BENCH_*.json must open with a [_meta] line recording
   at least the machine's [cores_available] — without it a wall-clock
   line cannot be interpreted. `--check` fails on a bench file missing
   it. *)
let check_bench_meta () =
  let files =
    Sys.readdir "." |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  let has_meta f =
    let first = In_channel.with_open_text f In_channel.input_line in
    match J.parse (Option.value ~default:"" first) with
    | Ok meta ->
        J.member "label" meta = Some (J.Str "_meta")
        && List.for_all
             (fun key -> Option.bind (J.member key meta) J.to_int <> None)
             [ "cores_available" ]
    | Error _ -> false
  in
  let bad = List.filter (fun f -> not (has_meta f)) files in
  List.iter
    (Printf.printf
       "  BAD META %s: first line must be a _meta object with integer \
        cores_available\n")
    bad;
  Printf.printf "Bench meta check: %d/%d BENCH_*.json files carry full _meta\n"
    (List.length files - List.length bad)
    (List.length files);
  bad = []

(* ------------------------------------------------------------------ *)
(* Certificates, instrumented lines, memo ablation and report cards     *)

let card label s report =
  Counting.Telemetry.build ~label ~opts:E.default ~vars:s.vars
    ~summand:Qpoly.one ~outcome:Counting.Telemetry.Complete ~report s.formula

(* `--certify FILE`: one certificate per fingerprinted row, from a cold
   run of the shared query runner under a fresh request context — the
   one omegad gives each request — so wildcard names, and with them the
   file's bytes, do not depend on what ran before. Each certificate
   carries the row's evaluation point, so omcheck re-derives a concrete
   count, not just the pieces. *)
let certify file =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun r ->
      Option.iter
        (fun s ->
          Omega.Memo.clear_all ();
          let result =
            Serve.Ctx.with_request (fun () ->
                Counting.Query.run ~label:r.label ~opts:E.default
                  ~budget:Counting.Governor.unlimited ~merge:false ~certify:true
                  ~instr:false
                  ~evals:[ List.map (fun (x, n) -> (x, Zint.of_int n)) s.at ]
                  ~at:[] ~source:r.label ~vars:s.vars ~summand:Qpoly.one
                  s.formula)
          in
          output_string oc (J.render (Option.get result.Counting.Query.certificate));
          output_char oc '\n')
        r.spec)
    rows

(* The rows with an instrumented line, and the configuration each
   records in its "options" object so trajectory files are
   self-describing. *)
let instrumented =
  let engine = E.opts_fields E.default @ [ ("memo", "on") ] in
  List.map
    (fun l -> (l, engine))
    [ "E0_intro_table"; "E1_example1"; "E2_example2"; "E4_example4"; "E6_example6" ]
  @ [
      ("S26_simplify", [ ("mode", "dnf_overlapping"); ("memo", "on") ]);
      ("F1_fig1_splinter", [ ("mode", "project_exact"); ("memo", "on") ]);
      ("S33_hpf_ownership", engine);
    ]

(* E4, S33 and F1 are left out of the memo ablation: their elimination
   counts are dominated by per-equality eliminations that each see a
   fresh wildcard, which no memo can serve. *)
let ablated =
  [ "E0_intro_table"; "E1_example1"; "E2_example2"; "E6_example6"; "S26_simplify" ]

let instr_lines emit =
  Printf.printf "Instrumented runs (cold caches, best of 5, one JSON line each):\n";
  (* One throwaway run absorbs process cold-start (code paging, weak-table
     growth, lazy initializers) so the first measured row is not charged
     for it. *)
  ignore ((row_named "E0_intro_table").run E.default);
  let eliminations_on =
    List.map
      (fun (label, meta) ->
        let r = row_named label in
        let meta =
          match r.spec with
          | Some s ->
              let fp = Counting.Telemetry.fingerprint ~summand:Qpoly.one in
              meta @ [ ("fingerprint", fp ~vars:s.vars s.formula) ]
          | None -> meta
        in
        (* Counters and allocation words are deterministic; only wall
           time is noisy, so keep the fastest of a few cold reps. *)
        let rep () =
          Omega.Memo.clear_all ();
          snd (E.with_instr ~label ~meta (fun () -> ignore (r.run E.default)))
        in
        let faster a b = Counting.Instr.(if b.wall_s < a.wall_s then b else a) in
        let report = List.fold_left faster (rep ()) (List.init 4 (fun _ -> rep ())) in
        emit (Counting.Instr.to_ojson report);
        (match r.spec with
        | Some s when Counting.Telemetry.enabled () ->
            Counting.Telemetry.record (card label s report)
        | _ -> ());
        (label, report.Counting.Instr.memo.Omega.Memo.eliminations))
      instrumented
  in
  (* Memo ablation: executed elimination bodies with the tables off vs on
     (the cold instrumented run above). *)
  Omega.Memo.set_enabled false;
  Fun.protect ~finally:(fun () -> Omega.Memo.set_enabled true) @@ fun () ->
  List.iter
    (fun label ->
      Omega.Memo.clear_all ();
      let before = Omega.Memo.((snapshot ()).eliminations) in
      ignore ((row_named label).run E.default);
      let off = Omega.Memo.((snapshot ()).eliminations) - before in
      let on = List.assoc label eliminations_on in
      emit
        (line ("memo_ablation_" ^ label)
           [
             ("eliminations_off", J.int off);
             ("eliminations_on", J.int on);
             ( "reduction_pct",
               J.fixed 1
                 (100. *. float_of_int (off - on) /. float_of_int (max 1 off)) );
           ]))
    ablated

(* ------------------------------------------------------------------ *)
(* Comparisons                                                          *)

(* [compare emit ~reps label sides fields]: the sides compute one value
   different ways, each returning its rendering lazily. Each side runs
   once cold and every rendering must be byte-identical, or the bench
   aborts. Then the sides are timed cold, interleaved rep by rep so slow
   drift (heap growth, CPU frequency) hits all equally, best of [reps];
   [fields] turns the best times into the line. [counters] are the last
   side's metric deltas from its untimed run, each recorded under its
   name's last component. *)
let compare emit ?(counters = []) ~reps label sides fields =
  let cold = Omega.Memo.clear_all in
  let deltas = ref [] in
  let rendered =
    List.map
      (fun side ->
        cold ();
        let before = Obs.Metrics.snapshot () in
        let s = Lazy.force (side ()) in
        deltas := Obs.Metrics.diff (Obs.Metrics.snapshot ()) before;
        s)
      sides
  in
  if List.exists (fun s -> s <> List.hd rendered) rendered then
    failwith (label ^ ": the sides render different values");
  let best = Array.make (List.length sides) infinity in
  for _ = 1 to reps do
    List.iteri
      (fun i side ->
        cold ();
        let t0 = Unix.gettimeofday () in
        ignore (side ());
        best.(i) <- Float.min best.(i) (Unix.gettimeofday () -. t0))
      sides
  done;
  let counter key =
    match List.assoc_opt key !deltas with
    | Some (Obs.Metrics.Count n) ->
        [ (List.hd (List.rev (String.split_on_char '.' key)), J.int n) ]
    | _ -> []
  in
  let counted = List.concat_map counter counters in
  emit (line label (fields best @ counted @ [ ("identical", J.Bool true) ]))

let secs s = J.fixed 6 s
let ratio a b = J.fixed 2 (a /. b)
let pct base x = J.fixed 2 ((x /. base -. 1.) *. 100.)

(* A side renders the whole value, not a row's checked points. *)
let of_value f opts = show [ sym ] (f opts)
let of_spec s = of_value (counted s)

let governed ?budget s () =
  match Counting.Governor.count ?budget ~vars:s.vars s.formula with
  | Counting.Governor.Complete value ->
      show [ sym ] (if s.merge then Counting.Merge.merge_residues value else value)
  | Counting.Governor.Partial _ -> failwith "governed run tripped its budget"

(* Finite limits that never trip: fuel countdown and deadline polls on. *)
let generous_budget =
  Counting.Governor.
    {
      deadline_ms = Some 600_000;
      fuel = Some 50_000_000;
      max_fanout = Some 1_000_000;
      max_clauses = Some 1_000_000;
    }

let comparisons emit =
  Printf.printf
    "Comparisons (cold caches, interleaved best of k, sides byte-identical):\n";
  (* Counting backends. E4's full count is dominated by quantifier
     elimination, which no backend touches; its sum phase alone (DNF
     precomputed) is the part the backend owns. S33 is symbolic in n, so
     gf falls back to Pugh on every clause. D1's residue splintering
     multiplies across its large coefficients while the cone
     decomposition stays polynomial. *)
  let e4_clauses = lazy (E.to_clauses e4.formula) in
  let sum_phase opts =
    show [ sym ] (E.sum_clauses ~opts ~vars:[ "x" ] (Lazy.force e4_clauses) Qpoly.one)
  in
  List.iter
    (fun (label, reps, run) ->
      compare emit ~reps label
        (List.map
           (fun backend () -> run { E.default with backend })
           [ E.Pugh; E.Gf; E.Auto ])
        (fun t ->
          [ ("pugh_s", secs t.(0)); ("gf_s", secs t.(1));
            ("auto_s", secs t.(2)); ("auto_speedup", ratio t.(0) t.(2)) ]))
    [
      ("backend_compare_E4", 3, of_spec e4);
      ("backend_compare_E4_sumphase", 25, sum_phase);
      ("backend_compare_S33", 3, of_value ownership);
      ("backend_compare_D1_dense", 1, of_value dense);
    ];
  (* Planner: the reference (pre-filter disarmed, every clause through
     Pugh) vs the default pipeline. The fields keep their historical
     names: [static_s] is the reference, [adaptive_s] the pipeline. *)
  List.iter
    (fun (label, reps, run) ->
      compare emit ~reps label
        ~counters:
          [
            "planner.probes"; "planner.probe_refuted"; "planner.pruned_pins";
            "planner.pruned_branches"; "planner.adaptive_clauses";
            "engine.gf_clauses";
          ]
        [
          (fun () ->
            Omega.Prefilter.with_armed false (fun () ->
                run { E.default with backend = E.Pugh }));
          (fun () -> run E.default);
        ]
        (fun t ->
          [ ("static_s", secs t.(0)); ("adaptive_s", secs t.(1));
            ("adaptive_speedup", ratio t.(0) t.(1)) ]))
    [
      ("planner_compare_S33", 3, of_value ownership);
      ("planner_compare_E4", 3, of_spec e4);
      ("planner_compare_D1_dense", 1, of_value dense);
    ];
  (* Governor: the plain engine (each checkpoint one atomic load) vs a
     governed run with no limits vs one with finite limits. *)
  List.iter
    (fun (name, s) ->
      compare emit ~reps:9 ("governor_overhead_" ^ name)
        [
          (fun () -> of_spec s E.default);
          governed s;
          governed ~budget:generous_budget s;
        ]
        (fun t ->
          [ ("baseline_s", secs t.(0)); ("governed_unlimited_s", secs t.(1));
            ("governed_budget_s", secs t.(2));
            ("overhead_unlimited_pct", pct t.(0) t.(1));
            ("overhead_budget_pct", pct t.(0) t.(2)) ]))
    [ ("E4", e4); ("E6", e6) ];
  (* Telemetry: the disabled path (no sink, log off: the production
     default) vs instrumentation collection alone (the --stats cost) vs
     the full card pipeline (collection, card assembly, render, append
     to a sink file, log level Info). *)
  let tmp = Filename.temp_file "omega_bench_telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Counting.Telemetry.set_file None;
      Obs.Log.set_level None;
      try Sys.remove tmp with Sys_error _ -> ())
  @@ fun () ->
  List.iter
    (fun (name, s) ->
      let instr () = E.with_instr ~label:name (fun () -> of_spec s E.default) in
      let enabled () =
        Counting.Telemetry.set_file (Some tmp);
        Obs.Log.set_level (Some Obs.Log.Info);
        let value, report = instr () in
        Counting.Telemetry.record (card name s report);
        Counting.Telemetry.set_file None;
        Obs.Log.set_level None;
        value
      in
      compare emit ~reps:9 ("telemetry_overhead_" ^ name)
        [ (fun () -> of_spec s E.default); (fun () -> fst (instr ())); enabled ]
        (fun t ->
          [ ("disabled_s", secs t.(0)); ("stats_s", secs t.(1));
            ("enabled_s", secs t.(2)); ("overhead_stats_pct", pct t.(0) t.(1));
            ("overhead_enabled_pct", pct t.(0) t.(2)) ]))
    [ ("E4", e4); ("E6", e6) ]

(* ------------------------------------------------------------------ *)

let () =
  let json = ref None and check = ref false and trace = ref None in
  let telemetry = ref None and certify_file = ref None in
  let file r = Arg.String (fun f -> r := Some f) in
  Arg.parse
    [
      ("--json", file json, "FILE also write every JSON line to FILE");
      ("--check", Arg.Set check, " exit 1 on a value or _meta mismatch");
      ("--trace", file trace, "FILE Chrome trace of the timed runs");
      ("--telemetry", file telemetry, "FILE one report card per fingerprinted row");
      ("--certify", file certify_file, "FILE one certificate per fingerprinted row");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--json FILE] [--check] [--trace FILE] [--telemetry FILE] \
     [--certify FILE]";
  let json_oc = Option.map open_out !json in
  let emit j =
    let text = J.render j in
    Printf.printf "%s\n" text;
    Option.iter
      (fun oc ->
        output_string oc text;
        output_char oc '\n')
      json_oc
  in
  (* Every emitted stream opens with a _meta line recording the machine
     context — what `--check`'s bench-meta gate enforces on the
     committed BENCH_*.json. *)
  emit
    (line "_meta"
       [
         ("generator", J.Str "bench/main.exe");
         ("cores_available", J.int (Domain.recommended_domain_count ()));
       ]);
  (* Untimed, and before the card sink is armed: the sink holds only the
     timed rows' cards. *)
  Option.iter certify !certify_file;
  Option.iter (fun f -> Counting.Telemetry.set_file (Some f)) !telemetry;
  let values_ok = check_results () in
  Option.iter (fun _ -> Obs.Trace.set_enabled true) !trace;
  instr_lines emit;
  comparisons emit;
  Option.iter
    (fun f ->
      Obs.Trace.set_enabled false;
      let oc = open_out f in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Obs.Trace.write_chrome oc))
    !trace;
  Option.iter close_out json_oc;
  if !check then begin
    let meta_ok = check_bench_meta () in
    if not (values_ok && meta_ok) then exit 1
  end
