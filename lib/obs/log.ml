(* Leveled structured logging — see log.mli.

   Level encoding: 0 = off, then Error=1 < Warn=2 < Info=3 < Debug=4.
   The hot-path guard is [severity lvl <= Atomic.get current]: one
   immediate match plus one atomic load, no allocation. *)

type level = Error | Warn | Info | Debug

let severity = function Error -> 1 | Warn -> 2 | Info -> 3 | Debug -> 4

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_choices =
  [
    ("off", None);
    ("error", Some Error);
    ("warn", Some Warn);
    ("warning", Some Warn);
    ("info", Some Info);
    ("debug", Some Debug);
  ]

let level_of_string s =
  List.assoc_opt (String.lowercase_ascii (String.trim s)) level_choices

let current =
  Atomic.make
    (match Envcfg.choice_or "OMEGA_LOG" ~choices:level_choices ~default:None with
    | Some l -> severity l
    | None -> 0)

let set_level = function
  | Some l -> Atomic.set current (severity l)
  | None -> Atomic.set current 0

let level () =
  match Atomic.get current with
  | 1 -> Some Error
  | 2 -> Some Warn
  | 3 -> Some Info
  | 4 -> Some Debug
  | _ -> None

let enabled lvl () = severity lvl <= Atomic.get current

(* ------------------------------------------------------------------ *)
(* Per-domain buffers, global sequence

   Same shape as Trace's rings: each domain owns a private growable
   buffer of already-rendered lines tagged with a global sequence
   number; buffers register themselves once under a mutex and are
   retained after their domain dies so worker records survive until the
   next flush. Only [flush] takes the registry lock. *)

let seq = Atomic.make 0

type buf = { mutable items : (int * string) list (* newest first *) }

let bufs_mu = Mutex.create ()
let bufs : buf list ref = ref []

let locked f =
  Mutex.lock bufs_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock bufs_mu) f

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b = { items = [] } in
      locked (fun () -> bufs := b :: !bufs);
      b)

let sink = ref stderr

let set_sink oc = sink := oc

let t0 = Unix.gettimeofday ()

let render ~n ~lvl ~dom ~fields text =
  Ojson.render
    (Ojson.Obj
       ([
          ("seq", Ojson.int n);
          ("ts", Ojson.fixed 6 (Unix.gettimeofday () -. t0));
          ("level", Ojson.Str (level_name lvl));
          ("dom", Ojson.int dom);
          ("msg", Ojson.Str text);
        ]
       @
       match fields with
       | [] -> []
       | fields -> [ ("fields", Ojson.obj Trace.value_json fields) ]))

let msg lvl ?fields thunk =
  if severity lvl <= Atomic.get current then begin
    let n = Atomic.fetch_and_add seq 1 in
    let fields = match fields with None -> [] | Some g -> g () in
    let line =
      render ~n ~lvl
        ~dom:(Domain.self () :> int)
        ~fields (thunk ())
    in
    let b = Domain.DLS.get buf_key in
    b.items <- (n, line) :: b.items
  end

let error ?fields thunk = msg Error ?fields thunk
let warn ?fields thunk = msg Warn ?fields thunk
let info ?fields thunk = msg Info ?fields thunk
let debug ?fields thunk = msg Debug ?fields thunk

let drain () =
  let all = locked (fun () -> !bufs) in
  let taken =
    List.concat_map
      (fun b ->
        let xs = b.items in
        b.items <- [];
        xs)
      all
  in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) taken

let pending () =
  List.fold_left
    (fun acc b -> acc + List.length b.items)
    0
    (locked (fun () -> !bufs))

let flush () =
  match drain () with
  | [] -> ()
  | lines ->
      List.iter
        (fun (_, l) ->
          output_string !sink l;
          output_char !sink '\n')
        lines;
      Stdlib.flush !sink

(* Flush in the last shutdown slot, so lines logged by the post-mortem
   and telemetry-close steps are never lost (see [Shutdown]). *)
let () = Shutdown.register Shutdown.Log_flush flush
