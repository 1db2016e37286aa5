(* The benchmark harness: runs one workload for one seed and prints the
   result line (the last line of stdout).

     harness.exe --workload paper-batch|serve-mixed|serve-hot --seed N
       --seconds S --trace 0|1 [--omegad PATH] [--out DIR]

   perfbench/run.py builds this and omegad, then calls it; see
   perfbench/README.md. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and omegad = ref "_build/default/bin/omegad.exe" in
  let out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  paper-batch, serve-mixed or serve-hot");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1  untraced (end-to-end) or traced (per-layer) run");
      ("--omegad", Arg.Set_string omegad, "PATH  the omegad binary (serve workloads)");
      ("--out", Arg.Set_string out, "DIR  where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let result =
    Perfbench.Workloads.run ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~traced ~omegad:!omegad ~out:!out
  in
  print_endline (Perfbench.Report.line result);
  exit 0
