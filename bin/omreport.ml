(* omreport: aggregate telemetry report cards, and check the recorded
   benchmark trajectory.

   Usage:
     omreport CARDS.jsonl [MORE.jsonl ...]     aggregate report cards
     omreport --top 10 CARDS.jsonl             widen the top-N tables
     omreport --compare BENCH_6.json BENCH_7.json ...
                                               speedup-trajectory check:
                                               prints every recorded
                                               speedup and fails (exit 1)
                                               when a ratcheted number
                                               regresses below its floor
                                               or a byte-identity flag is
                                               false.

   Exit codes: 0 ok; 1 regression or no parseable input; 2 usage. *)

module J = Obs.Ojson

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (if String.trim line = "" then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* ------------------------------------------------------------------ *)
(* Card aggregation                                                    *)

type agg = {
  mutable cards : int;
  mutable bad_lines : int;
  mutable walls : float list;
  outcomes : (string, int) Hashtbl.t;
  reasons : (string, int) Hashtbl.t;  (* partial reasons *)
  phases : (string, float * int) Hashtbl.t;  (* name -> seconds, entries *)
  backends : (string, int) Hashtbl.t;  (* per-clause backend counts *)
  mutable slow : (float * string * string) list;  (* wall, fingerprint, query *)
  mutable memo : (string * int) list;  (* summed memo counters *)
  mutable probes : int;
  mutable refuted : int;
  mutable fuel_used : int;
  mutable trips : int;
  mutable injections : int;
}

let fresh_agg () =
  {
    cards = 0;
    bad_lines = 0;
    walls = [];
    outcomes = Hashtbl.create 4;
    reasons = Hashtbl.create 4;
    phases = Hashtbl.create 8;
    backends = Hashtbl.create 4;
    slow = [];
    memo = [];
    probes = 0;
    refuted = 0;
    fuel_used = 0;
    trips = 0;
    injections = 0;
  }

let bump tbl k by =
  Hashtbl.replace tbl k (by + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let num j k = Option.bind (J.member k j) J.to_float
let int_of j k = Option.bind (J.member k j) J.to_int
let str j k = Option.bind (J.member k j) J.to_string

let absorb_card agg j =
  agg.cards <- agg.cards + 1;
  let report = J.member "report" j in
  let wall =
    Option.value ~default:0. (Option.bind report (fun r -> num r "wall_s"))
  in
  agg.walls <- wall :: agg.walls;
  let fp = Option.value ~default:"?" (str j "fingerprint") in
  let query = Option.value ~default:"?" (str j "query") in
  agg.slow <- (wall, fp, query) :: agg.slow;
  (match J.member "outcome" j with
  | Some o ->
      bump agg.outcomes (Option.value ~default:"?" (str o "status")) 1;
      (match str o "reason" with
      | Some r -> bump agg.reasons r 1
      | None -> ())
  | None -> ());
  (match J.member "clauses" j with
  | Some (J.Arr cls) ->
      List.iter
        (fun c ->
          match str c "backend" with
          | Some b -> bump agg.backends b 1
          | None -> ())
        cls
  | _ -> ());
  (match Option.bind report (fun r -> J.member "phases" r) with
  | Some (J.Obj ps) ->
      List.iter
        (fun (name, p) ->
          let s = Option.value ~default:0. (num p "seconds") in
          let e = Option.value ~default:0 (int_of p "entries") in
          let s0, e0 =
            Option.value ~default:(0., 0) (Hashtbl.find_opt agg.phases name)
          in
          Hashtbl.replace agg.phases name (s0 +. s, e0 + e))
        ps
  | _ -> ());
  (match Option.bind report (fun r -> J.member "memo" r) with
  | Some (J.Obj ms) ->
      List.iter
        (fun (name, v) ->
          match J.to_int v with
          | Some n ->
              agg.memo <-
                (match List.assoc_opt name agg.memo with
                | Some n0 ->
                    (name, n0 + n) :: List.remove_assoc name agg.memo
                | None -> (name, n) :: agg.memo)
          | None -> ())
        ms
  | _ -> ());
  (match J.member "rates" j with
  | Some r ->
      agg.probes <- agg.probes + Option.value ~default:0 (int_of r "prefilter_probes")
  | None -> ());
  (match
     Option.bind report (fun r ->
         Option.bind (J.member "metrics" r) (fun m ->
             int_of m "planner.probe_refuted"))
   with
  | Some n -> agg.refuted <- agg.refuted + n
  | None -> ());
  match J.member "budget" j with
  | Some b ->
      agg.fuel_used <- agg.fuel_used + Option.value ~default:0 (int_of b "fuel_used");
      agg.trips <- agg.trips + Option.value ~default:0 (int_of b "trips");
      agg.injections <-
        agg.injections + Option.value ~default:0 (int_of b "injections")
  | None -> ()

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))

let rate hits queries =
  if queries = 0 then 0. else 100. *. float_of_int hits /. float_of_int queries

let memo_sum agg k = Option.value ~default:0 (List.assoc_opt k agg.memo)

let print_agg ~top agg =
  Printf.printf "report cards: %d (%d unparseable line%s skipped)\n" agg.cards
    agg.bad_lines
    (if agg.bad_lines = 1 then "" else "s");
  if agg.cards > 0 then begin
    let sorted = Array.of_list (List.sort Float.compare agg.walls) in
    Printf.printf "latency (wall seconds): p50=%.6f p90=%.6f p99=%.6f max=%.6f\n"
      (percentile sorted 50.) (percentile sorted 90.) (percentile sorted 99.)
      sorted.(Array.length sorted - 1);
    Printf.printf "outcomes:";
    Hashtbl.iter (fun k n -> Printf.printf " %s=%d" k n) agg.outcomes;
    print_newline ();
    if Hashtbl.length agg.reasons > 0 then begin
      Printf.printf "partial reasons:";
      Hashtbl.iter (fun k n -> Printf.printf " %s=%d" k n) agg.reasons;
      print_newline ()
    end;
    if Hashtbl.length agg.backends > 0 then begin
      Printf.printf "clause backends:";
      Hashtbl.iter (fun k n -> Printf.printf " %s=%d" k n) agg.backends;
      print_newline ()
    end;
    Printf.printf
      "memo hit rates: feas %.1f%% (%d) elim %.1f%% (%d) gist %.1f%% (%d)\n"
      (rate (memo_sum agg "feas_hits") (memo_sum agg "feas_queries"))
      (memo_sum agg "feas_queries")
      (rate (memo_sum agg "elim_hits") (memo_sum agg "elim_queries"))
      (memo_sum agg "elim_queries")
      (rate (memo_sum agg "gist_hits") (memo_sum agg "gist_queries"))
      (memo_sum agg "gist_queries");
    Printf.printf "prefilter: %d probes, %.1f%% refuted\n" agg.probes
      (rate agg.refuted agg.probes);
    Printf.printf "budget: fuel_used=%d trips=%d injections=%d\n" agg.fuel_used
      agg.trips agg.injections;
    let slow =
      List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a) agg.slow
    in
    Printf.printf "top %d slow queries:\n" top;
    List.iteri
      (fun i (w, fp, q) ->
        if i < top then
          Printf.printf "  %2d. %.6fs  %s  %s\n" (i + 1) w fp q)
      slow;
    let phases =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg.phases []
      |> List.sort (fun (_, (a, _)) (_, (b, _)) -> Float.compare b a)
    in
    Printf.printf "top %d phases by total time:\n" top;
    List.iteri
      (fun i (name, (s, e)) ->
        if i < top then
          Printf.printf "  %2d. %-12s %.6fs  (%d entries)\n" (i + 1) name s e)
      phases
  end

let aggregate ~top files =
  let agg = fresh_agg () in
  List.iter
    (fun file ->
      List.iter
        (fun line ->
          match J.parse line with
          | Ok j
            when str j "schema" = Some "omegacount.card.v1" ->
              absorb_card agg j
          | Ok _ | Error _ -> agg.bad_lines <- agg.bad_lines + 1)
        (read_lines file))
    files;
  print_agg ~top agg;
  if agg.cards = 0 then begin
    prerr_endline "omreport: no report cards found";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Trajectory check (--compare)                                        *)

(* The regression ratchet: these recorded speedups may only go up.
   Floors are vs-seed guarantees from the changes that introduced them
   (the planner and the gf backend), checked in CI against the
   committed BENCH_*.json trajectory. *)
let ratchets =
  [
    ("planner_compare_S33", "adaptive_speedup", 1.0);
    ("planner_compare_D1_dense", "adaptive_speedup", 1.0);
    ("backend_compare_D1_dense", "auto_speedup", 1.0);
  ]

let speedup_fields =
  [ "speedup"; "par_speedup"; "auto_speedup"; "adaptive_speedup" ]

let compare_files files =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let seen_ratchets = Hashtbl.create 8 in
  List.iter
    (fun file ->
      List.iter
        (fun line ->
          match J.parse line with
          | Error e -> fail "%s: %s" file e
          | Ok j ->
              let label = Option.value ~default:"?" (str j "label") in
              if label <> "_meta" then begin
                List.iter
                  (fun field ->
                    match num j field with
                    | Some v ->
                        Printf.printf "%-18s %-32s %s=%.2f\n"
                          (Filename.basename file) label field v
                    | None -> ())
                  speedup_fields;
                (match J.member "identical" j with
                | Some (J.Bool true) | None -> ()
                | Some _ ->
                    fail "%s: %s: identical=false (byte-identity broken)"
                      file label);
                List.iter
                  (fun (l, field, floor) ->
                    if l = label then
                      match num j field with
                      | Some v ->
                          Hashtbl.replace seen_ratchets (l, field) ();
                          if v < floor then
                            fail
                              "%s: %s: %s=%.2f fell below the %.1fx ratchet"
                              file label field v floor
                      | None ->
                          fail "%s: %s: missing ratcheted field %s" file
                            label field)
                  ratchets
              end)
        (read_lines file))
    files;
  (* Only require a ratchet when its experiment appears in the given
     files — omreport --compare BENCH_4.json alone checks par lines. *)
  List.iter
    (fun msg -> Printf.eprintf "omreport: REGRESSION: %s\n" msg)
    (List.rev !failures);
  if !failures <> [] then exit 1;
  Printf.printf "trajectory ok (%d ratchet%s checked)\n"
    (Hashtbl.length seen_ratchets)
    (if Hashtbl.length seen_ratchets = 1 then "" else "s")

(* ------------------------------------------------------------------ *)

let () =
  let compare_mode = ref false in
  let top = ref 5 in
  let files = ref [] in
  let spec =
    [
      ( "--compare",
        Arg.Set compare_mode,
        "  treat the files as BENCH_*.json lines and check the speedup \
         trajectory (exit 1 on regression)" );
      ("--top", Arg.Set_int top, "N  rows in the top-N tables (default 5)");
    ]
  in
  let usage =
    "omreport [--top N] CARDS.jsonl ...\nomreport --compare BENCH_*.json ..."
  in
  Arg.parse spec (fun f -> files := f :: !files) usage;
  match List.rev !files with
  | [] ->
      prerr_endline usage;
      exit 2
  | files ->
      if !compare_mode then compare_files files
      else aggregate ~top:!top files
