(* Workload dispatch: run one, write a traced run's spans and self-time
   table, and select the catalogue's metrics for the result line. *)

(* The workloads BENCHMARK.json lists. paper-batch runs too, by hand:
   its wall-clock figures swing too far between runs on the reference
   machine for end-to-end bounds (see README.md), and serve-mixed's
   traced run carries its layer attribution instead. *)
let names = [ "serve-mixed"; "serve-hot" ]

let write_trace ~workload ~seed spans =
  let base = Printf.sprintf "%s-seed%d" workload seed in
  Spans.write_jsonl (base ^ ".spans.jsonl") spans;
  let oc = open_out (base ^ ".self.txt") in
  Printf.fprintf oc "%-28s %8s %12s\n" "span" "calls" "self_ms";
  List.iter
    (fun (name, n, t) -> Printf.fprintf oc "%-28s %8d %12.3f\n" name n (t *. 1000.))
    (Spans.self_by_name spans);
  close_out oc

(* Runs from inside [out] (created if missing): omegad's socket and a
   traced run's files go there. *)
let run ~workload ~seed ~seconds ~traced ~omegad ~out =
  let omegad =
    if Filename.is_relative omegad then Filename.concat (Sys.getcwd ()) omegad
    else omegad
  in
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let cwd = Sys.getcwd () in
  Sys.chdir out;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  let r, values, spans =
    match workload with
    | "paper-batch" -> Paper.run ~seed ~seconds ~traced
    | "serve-mixed" -> Serve_load.run_mixed ~seed ~seconds ~traced ~omegad
    | "serve-hot" -> Serve_load.run_hot ~seed ~seconds ~traced ~omegad
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  if traced then write_trace ~workload ~seed spans;
  let catalogue = if traced then Report.per_layer_metrics else Report.end_to_end in
  { r with Report.metrics = Report.select catalogue values }
