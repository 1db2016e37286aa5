(* Order statistics and small numeric helpers shared by the workloads. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array, [p] in [0, 100]. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly beyond the [p]-th percentile. *)
let beyond_sorted a p =
  let v = percentile_sorted a p in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Peak resident set ("VmHWM") of a process, in MB; [pid] defaults to
   this process. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* A fixed allocation-heavy kernel in harness code: build and sort
   lists of boxed floats. It shares the engine's bottleneck (minor-heap
   allocation and promotion) but none of its code, so its time tracks
   machine drift and nothing a change to the library can move. *)
let host_ref_ms () =
  let st = Random.State.make [| 0x5eed |] in
  let (), dt =
    time (fun () ->
        for _ = 1 to 2 do
          let l = List.init 20_000 (fun _ -> Random.State.float st 1.) in
          ignore (Sys.opaque_identity (List.sort compare l))
        done)
  in
  dt *. 1000.
