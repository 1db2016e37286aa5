(* Run reports over the observability substrate. Phase timers are
   hierarchical spans now (Obs.Trace): [time_phase] delegates to
   [Trace.phase], which accumulates (seconds, entries) whether or not
   tracing is enabled and additionally records begin/end events into the
   trace ring buffer when it is. Entering a phase stays two clock reads
   and a hashtbl hit — cheap enough to leave permanently enabled. *)

let now () = Unix.gettimeofday ()

(* Re-entrant: nested same-phase entries bump the entry count but wall
   time accumulates only at the outermost level (Trace keeps a depth
   counter per phase). *)
let time_phase = Obs.Trace.phase

let reset_phases = Obs.Trace.reset_phases

let phase_fields = Obs.Trace.phase_totals

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

type report = {
  label : string;
  wall_s : float;
  phases : (string * (float * int)) list;
  memo : Omega.Memo.counters;
  counts : (string * int) list;
  metrics : (string * Obs.Metrics.sample) list;
  options : (string * string) list;
  minor_words : float;
  promoted_words : float;
  major_words : float;
}

(* [collect ~label f] runs [f] with fresh phase timers and a memo-counter
   baseline, and pairs its result with the deltas. Nesting is not
   supported (the phase table is global); memo *tables* are left alone,
   so a collected run still benefits from earlier warm-up. Allocation
   deltas come from [Gc.quick_stat] (no heap walk), so sampling them
   costs nothing measurable against the runs being measured. *)
let collect ?(label = "run") ?(options = []) ?(counts = fun () -> []) f =
  reset_phases ();
  let m0 = Omega.Memo.snapshot () in
  let mx0 = Obs.Metrics.snapshot () in
  let g0 = Gc.quick_stat () in
  (* [Gc.minor_words] reads the allocation pointer, so the minor delta is
     word-exact; [quick_stat]'s minor_words only advances at minor
     collections (one-heap granularity on OCaml 5). *)
  let mw0 = Gc.minor_words () in
  let t0 = now () in
  let x = f () in
  let wall_s = now () -. t0 in
  let mw1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let memo = Omega.Memo.(diff (snapshot ()) m0) in
  let metrics = Obs.Metrics.(diff (snapshot ()) mx0) in
  ( x,
    {
      label;
      wall_s;
      phases = phase_fields ();
      memo;
      counts = counts ();
      metrics;
      options;
      minor_words = mw1 -. mw0;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
    } )

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

module J = Obs.Ojson

let to_ojson r =
  let section name f kvs = if kvs = [] then [] else [ (name, J.obj f kvs) ] in
  J.Obj
    ([ ("label", J.Str r.label); ("wall_s", J.fixed 6 r.wall_s) ]
    @ section "options" (fun v -> J.Str v) r.options
    @ [
        ( "phases",
          J.obj
            (fun (s, n) ->
              J.Obj [ ("seconds", J.fixed 6 s); ("entries", J.int n) ])
            r.phases );
        ("memo", J.obj J.int (Omega.Memo.counters_to_fields r.memo));
        ( "gc",
          J.Obj
            [
              ("minor_words", J.fixed 0 r.minor_words);
              ("promoted_words", J.fixed 0 r.promoted_words);
              ("major_words", J.fixed 0 r.major_words);
            ] );
      ]
    @ section "engine" J.int r.counts
    @ section "metrics" Obs.Metrics.sample_json r.metrics)

let to_json r = J.render (to_ojson r)

let hit_rate hits queries =
  if queries = 0 then 0. else 100. *. float_of_int hits /. float_of_int queries

let pp fmt r =
  Format.fprintf fmt "@[<v>%s: %.3fs wall@," r.label r.wall_s;
  if r.options <> [] then
    Format.fprintf fmt "  options %s@,"
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) r.options));
  List.iter
    (fun (name, (s, n)) ->
      Format.fprintf fmt "  phase %-10s %8.3fs  (%d entries)@," name s n)
    r.phases;
  let m = r.memo in
  Format.fprintf fmt "  feas   %d queries, %d hits (%.1f%%)@," m.feas_queries
    m.feas_hits
    (hit_rate m.feas_hits m.feas_queries);
  Format.fprintf fmt "  elim   %d queries, %d hits (%.1f%%)@," m.elim_queries
    m.elim_hits
    (hit_rate m.elim_hits m.elim_queries);
  Format.fprintf fmt "  gist   %d queries, %d hits (%.1f%%)@," m.gist_queries
    m.gist_hits
    (hit_rate m.gist_hits m.gist_queries);
  Format.fprintf fmt "  eliminations %d, evictions %d@," m.eliminations
    m.evictions;
  Format.fprintf fmt "  alloc  %.0f minor words, %.0f promoted, %.0f major@,"
    r.minor_words r.promoted_words r.major_words;
  List.iter (fun (name, v) -> Format.fprintf fmt "  %-12s %d@," name v) r.counts;
  List.iter
    (fun (name, s) ->
      match s with
      | Obs.Metrics.Count 0 | Obs.Metrics.Level 0 -> ()
      | Obs.Metrics.Count n | Obs.Metrics.Level n ->
          Format.fprintf fmt "  metric %-26s %d@," name n
      | Obs.Metrics.Hist h when h.count = 0 -> ()
      | Obs.Metrics.Hist h ->
          Format.fprintf fmt "  metric %-26s n=%d sum=%d %s@," name h.count
            h.sum
            (J.render (J.Arr (List.map J.int (Array.to_list h.counts)))))
    r.metrics;
  Format.fprintf fmt "@]"
