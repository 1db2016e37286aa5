(* Hierarchical tracing over per-domain bounded ring buffers.

   Hot-path discipline: when tracing is disabled, [span]/[instant] are a
   single atomic flag read and must not allocate — the counting engine's
   alloc-guard test enforces this. Every domain owns a private ring
   (domain-local storage) and writes to it without any synchronization:
   the recording path is exactly the single-domain array store it always
   was. Rings register themselves in a global list on first use and are
   retained after their domain dies, so worker events survive until
   export; the exporters walk all rings, repair pairing per ring, and
   tag each ring's events with a distinct Chrome [tid]. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type attr = string * value

type event = { ph : char; name : string; ts_us : float; attrs : attr list }

let dummy_event = { ph = 'i'; name = ""; ts_us = 0.; attrs = [] }

(* ------------------------------------------------------------------ *)
(* State                                                               *)

let on = Atomic.make false

let enabled () = Atomic.get on

let default_capacity = Envcfg.int_or "OMEGA_TRACE_CAP" ~min:16 ~default:65536

let cap = Atomic.make default_capacity

(* One ring per domain. [buf] is allocated lazily at the first recorded
   event (with the capacity current at that moment), so linking the
   library costs no memory until tracing is switched on. [clear] cannot
   safely empty another domain's ring, so it bumps [generation]; a ring
   lazily resets itself on its owner's next access when its recorded
   generation is stale. *)
type ring = {
  tid : int;  (* Chrome thread id: 1 for the first domain, then 2, … *)
  mutable buf : event array;
  mutable total : int;  (* events written since the last reset *)
  mutable open_attrs : attr list list;
      (* pending [add_attr] attributes per open span, innermost first *)
  mutable gen : int;
}

let generation = Atomic.make 0
let next_tid = Atomic.make 1
let rings_mu = Mutex.create ()
let rings : ring list ref = ref []

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let ring_key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          tid = Atomic.fetch_and_add next_tid 1;
          buf = [||];
          total = 0;
          open_attrs = [];
          gen = Atomic.get generation;
        }
      in
      locked rings_mu (fun () -> rings := r :: !rings);
      r)

let my_ring () =
  let r = Domain.DLS.get ring_key in
  let g = Atomic.get generation in
  if r.gen <> g then begin
    r.buf <- [||];
    r.total <- 0;
    r.open_attrs <- [];
    r.gen <- g
  end;
  r

(* Rings ordered oldest-registered first (ascending tid), stale rings
   conceptually empty. Reading another domain's ring is only sensible
   while that domain is quiescent (export time); the worst a torn read
   could produce is a garbled event that pairing repair drops. *)
let live_rings () =
  let g = Atomic.get generation in
  locked rings_mu (fun () -> !rings)
  |> List.filter (fun r -> r.gen = g && r.total > 0)
  |> List.sort (fun a b -> Int.compare a.tid b.tid)

let clear () =
  Atomic.incr generation;
  ignore (my_ring ())

let set_capacity n =
  if n < 16 then invalid_arg "Trace.set_capacity: capacity must be >= 16";
  Atomic.set cap n;
  clear ()

let capacity () = Atomic.get cap

let set_enabled b = Atomic.set on b

let ring_dropped r =
  let c = Array.length r.buf in
  if c > 0 && r.total > c then r.total - c else 0

let dropped () = List.fold_left (fun acc r -> acc + ring_dropped r) 0 (live_rings ())

let t0 = Unix.gettimeofday ()

let now_us () = (Unix.gettimeofday () -. t0) *. 1e6

let record r ev =
  if Array.length r.buf = 0 then r.buf <- Array.make (Atomic.get cap) dummy_event;
  r.buf.(r.total mod Array.length r.buf) <- ev;
  r.total <- r.total + 1

let ring_events r =
  let n = r.total and c = Array.length r.buf in
  if n = 0 || c = 0 then []
  else if n <= c then Array.to_list (Array.sub r.buf 0 n)
  else begin
    let start = n mod c in
    List.init c (fun i -> r.buf.((start + i) mod c))
  end

let events () = List.concat_map ring_events (live_rings ())

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let instant ?attrs name =
  if Atomic.get on then
    record (my_ring ())
      {
        ph = 'i';
        name;
        ts_us = now_us ();
        attrs = (match attrs with None -> [] | Some g -> g ());
      }

let add_attr k v =
  if Atomic.get on then begin
    let r = my_ring () in
    match r.open_attrs with
    | a :: rest -> r.open_attrs <- ((k, v) :: a) :: rest
    | [] -> ()
  end

let span ?attrs name f =
  if not (Atomic.get on) then f ()
  else begin
    let r = my_ring () in
    record r
      {
        ph = 'B';
        name;
        ts_us = now_us ();
        attrs = (match attrs with None -> [] | Some g -> g ());
      }
    ;
    r.open_attrs <- [] :: r.open_attrs;
    Fun.protect
      ~finally:(fun () ->
        let extra =
          match r.open_attrs with
          | a :: rest ->
              r.open_attrs <- rest;
              List.rev a
          | [] -> []
        in
        record r { ph = 'E'; name; ts_us = now_us (); attrs = extra })
      f
  end

(* ------------------------------------------------------------------ *)
(* Always-on phase aggregation (the base of Instr.time_phase)          *)

type phase_rec = {
  mutable seconds : float;
  mutable entries : int;
  mutable depth : int;
  mutable t_start : float;
}

(* Per-domain phase tables, same pattern as the rings: lock-free
   accumulation into a DLS table, a registered list for summation, and
   generation-based reset. *)
type phase_tbl = { ptbl : (string, phase_rec) Hashtbl.t; mutable pgen : int }

let phase_generation = Atomic.make 0
let ptbls_mu = Mutex.create ()
let ptbls : phase_tbl list ref = ref []

let phase_key =
  Domain.DLS.new_key (fun () ->
      let t = { ptbl = Hashtbl.create 8; pgen = Atomic.get phase_generation } in
      locked ptbls_mu (fun () -> ptbls := t :: !ptbls);
      t)

let my_phases () =
  let t = Domain.DLS.get phase_key in
  let g = Atomic.get phase_generation in
  if t.pgen <> g then begin
    Hashtbl.reset t.ptbl;
    t.pgen <- g
  end;
  t

let phase_find name =
  let t = my_phases () in
  match Hashtbl.find_opt t.ptbl name with
  | Some p -> p
  | None ->
      let p = { seconds = 0.; entries = 0; depth = 0; t_start = 0. } in
      Hashtbl.add t.ptbl name p;
      p

let phase name f =
  let p = phase_find name in
  p.entries <- p.entries + 1;
  p.depth <- p.depth + 1;
  if p.depth = 1 then p.t_start <- Unix.gettimeofday ();
  let finish () =
    p.depth <- p.depth - 1;
    if p.depth = 0 then
      p.seconds <- p.seconds +. (Unix.gettimeofday () -. p.t_start)
  in
  if not (Atomic.get on) then Fun.protect ~finally:finish f
  else span name (fun () -> Fun.protect ~finally:finish f)

let phase_totals () =
  let g = Atomic.get phase_generation in
  let tbls = locked ptbls_mu (fun () -> !ptbls) in
  let acc : (string, float * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun t ->
      if t.pgen = g then
        Hashtbl.iter
          (fun name p ->
            let s0, e0 =
              match Hashtbl.find_opt acc name with
              | Some x -> x
              | None -> (0., 0)
            in
            Hashtbl.replace acc name (s0 +. p.seconds, e0 + p.entries))
          t.ptbl)
    tbls;
  Hashtbl.fold (fun name x l -> (name, x) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_phases () =
  Atomic.incr phase_generation;
  ignore (my_phases ())

(* ------------------------------------------------------------------ *)
(* Pairing repair                                                      *)

(* Each ring keeps a contiguous suffix of a properly nested B/E stream,
   so the only defects are E events whose B was overwritten (they pop an
   empty stack: drop them) and B events still open when the buffer is
   dumped (close them at the ring's last timestamp). Within the suffix
   an E with a nonempty stack always matches the innermost open B. *)
let repair_ring evs =
  let last_ts = List.fold_left (fun acc e -> Float.max acc e.ts_us) 0. evs in
  let rec go stack acc = function
    | [] ->
        let closers =
          List.map
            (fun (b : event) ->
              { ph = 'E'; name = b.name; ts_us = last_ts; attrs = [] })
            stack
        in
        List.rev_append acc closers
    | e :: rest -> (
        match e.ph with
        | 'B' -> go (e :: stack) (e :: acc) rest
        | 'E' -> (
            match stack with
            | _ :: s -> go s (e :: acc) rest
            | [] -> go [] acc rest)
        | _ -> go stack (e :: acc) rest)
  in
  go [] [] evs

(* Concatenating per-ring balanced streams keeps the whole stream
   balanced: a stack walk over the result empties between rings. *)
let paired_events () =
  List.concat_map (fun r -> repair_ring (ring_events r)) (live_rings ())

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)

let value_json = function
  | Int i -> Ojson.int i
  | Float f when Float.is_finite f -> Ojson.Lit (Printf.sprintf "%.6g" f)
  | Float f -> Ojson.Str (string_of_float f)
  | Str s -> Ojson.Str s
  | Bool b -> Ojson.Bool b

let event_json ~tid (e : event) =
  let args =
    match e.attrs with
    | [] -> []
    | attrs -> [ ("args", Ojson.obj value_json attrs) ]
  in
  Ojson.Obj
    ([
       ("name", Ojson.Str e.name);
       ("ph", Ojson.Str (String.make 1 e.ph));
       ("ts", Ojson.fixed 3 e.ts_us);
       ("pid", Ojson.int 1);
       ("tid", Ojson.int tid);
     ]
    @ (if e.ph = 'i' then [ ("s", Ojson.Str "t") ] else [])
    @ args)

let metadata ~name ~tid value =
  Ojson.Obj
    [
      ("name", Ojson.Str name);
      ("ph", Ojson.Str "M");
      ("pid", Ojson.int 1);
      ("tid", Ojson.int tid);
      ("args", Ojson.Obj [ ("name", Ojson.Str value) ]);
    ]

let to_chrome_json () =
  let events =
    metadata ~name:"process_name" ~tid:1 "omegacount"
    :: List.concat_map
         (fun r ->
           metadata ~name:"thread_name" ~tid:r.tid
             (Printf.sprintf "domain %d" r.tid)
           :: List.map (event_json ~tid:r.tid) (repair_ring (ring_events r)))
         (live_rings ())
  in
  Ojson.render
    (Ojson.Obj
       [
         ("traceEvents", Ojson.Arr events);
         ("displayTimeUnit", Ojson.Str "ms");
         ( "otherData",
           Ojson.Obj [ ("dropped_events", Ojson.int (dropped ())) ] );
       ])

let write_chrome oc = output_string oc (to_chrome_json ())

(* ------------------------------------------------------------------ *)
(* Self-time profile                                                   *)

type pnode = {
  mutable total_us : float;
  mutable count : int;
  children : (string, pnode) Hashtbl.t;
}

let pp_profile fmt () =
  let fresh () = { total_us = 0.; count = 0; children = Hashtbl.create 8 } in
  let root = fresh () in
  let child n name =
    match Hashtbl.find_opt n.children name with
    | Some c -> c
    | None ->
        let c = fresh () in
        Hashtbl.add n.children name c;
        c
  in
  let stack = ref [] in
  List.iter
    (fun (e : event) ->
      match e.ph with
      | 'B' ->
          let parent = match !stack with (n, _) :: _ -> n | [] -> root in
          stack := (child parent e.name, e.ts_us) :: !stack
      | 'E' -> (
          match !stack with
          | (n, start) :: rest ->
              n.total_us <- n.total_us +. (e.ts_us -. start);
              n.count <- n.count + 1;
              stack := rest
          | [] -> ())
      | _ -> ())
    (paired_events ());
  let self n =
    Hashtbl.fold (fun _ c acc -> acc -. c.total_us) n.children n.total_us
  in
  let sorted_children n =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) n.children []
    |> List.sort (fun (_, a) (_, b) -> Float.compare (self b) (self a))
  in
  Format.fprintf fmt "@[<v>trace profile (micros; siblings sorted by self time)@,";
  Format.fprintf fmt "  %-40s %12s %12s %8s@," "span" "total" "self" "count";
  let rec emit depth name n =
    let label = String.make (2 * depth) ' ' ^ name in
    let label =
      if String.length label > 40 then String.sub label 0 40 else label
    in
    Format.fprintf fmt "  %-40s %12.1f %12.1f %8d@," label n.total_us (self n)
      n.count;
    List.iter (fun (k, v) -> emit (depth + 1) k v) (sorted_children n)
  in
  List.iter (fun (k, v) -> emit 0 k v) (sorted_children root);
  if dropped () > 0 then
    Format.fprintf fmt "  (%d events dropped by the ring buffer)@," (dropped ());
  Format.fprintf fmt "@]"
