(* Counters and fixed-bucket histograms. The hot operations ([incr],
   [observe]) are atomic fetch-and-adds into preallocated cells so the
   registry can stay on in production runs — and so concurrent domains
   never lose increments; snapshotting allocates, but only the
   instrumentation layer does that, once per measured run. The registry
   table itself is guarded by a mutex (registration is cold: once per
   metric per process). *)

type kind =
  | Counter of { n : int Atomic.t }
  | Gauge of { g : int Atomic.t }
  | Histogram of {
      bounds : int array;  (* ascending inclusive upper bounds *)
      counts : int Atomic.t array;
          (* length = Array.length bounds + 1 (overflow) *)
      count : int Atomic.t;
      sum : int Atomic.t;
    }

type t = { name : string; kind : kind }

let registry_mu = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) f

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some ({ kind = Counter _; _ } as m) -> m
      | Some _ ->
          invalid_arg (Printf.sprintf "Metrics.counter: %s is a histogram" name)
      | None ->
          let m = { name; kind = Counter { n = Atomic.make 0 } } in
          Hashtbl.add registry name m;
          m)

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some ({ kind = Gauge _; _ } as m) -> m
      | Some _ ->
          invalid_arg (Printf.sprintf "Metrics.gauge: %s is not a gauge" name)
      | None ->
          let m = { name; kind = Gauge { g = Atomic.make 0 } } in
          Hashtbl.add registry name m;
          m)

let set m v =
  match m.kind with
  | Gauge g -> Atomic.set g.g v
  | _ -> invalid_arg ("Metrics.set: " ^ m.name ^ " is not a gauge")

let add m by =
  match m.kind with
  | Gauge g -> ignore (Atomic.fetch_and_add g.g by)
  | _ -> invalid_arg ("Metrics.add: " ^ m.name ^ " is not a gauge")

let histogram name ~buckets =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: empty bucket list";
  Array.iteri
    (fun i b ->
      if i > 0 && buckets.(i - 1) >= b then
        invalid_arg "Metrics.histogram: buckets must be strictly ascending")
    buckets;
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some ({ kind = Histogram h; _ } as m) ->
          if h.bounds <> buckets then
            invalid_arg
              (Printf.sprintf
                 "Metrics.histogram: %s registered with other buckets" name);
          m
      | Some _ ->
          invalid_arg (Printf.sprintf "Metrics.histogram: %s is a counter" name)
      | None ->
          let m =
            {
              name;
              kind =
                Histogram
                  {
                    bounds = Array.copy buckets;
                    counts =
                      Array.init (Array.length buckets + 1) (fun _ ->
                          Atomic.make 0);
                    count = Atomic.make 0;
                    sum = Atomic.make 0;
                  };
            }
          in
          Hashtbl.add registry name m;
          m)

let incr ?(by = 1) m =
  match m.kind with
  | Counter c -> ignore (Atomic.fetch_and_add c.n by)
  | _ -> invalid_arg ("Metrics.incr: " ^ m.name ^ " is not a counter")

let observe m v =
  match m.kind with
  | Histogram h ->
      let n = Array.length h.bounds in
      let rec idx i = if i >= n || v <= h.bounds.(i) then i else idx (i + 1) in
      let i = idx 0 in
      ignore (Atomic.fetch_and_add h.counts.(i) 1);
      ignore (Atomic.fetch_and_add h.count 1);
      ignore (Atomic.fetch_and_add h.sum v)
  | _ -> invalid_arg ("Metrics.observe: " ^ m.name ^ " is not a histogram")

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type sample =
  | Count of int
  | Level of int
  | Hist of { bounds : int array; counts : int array; count : int; sum : int }

let sample_json = function
  | Count n | Level n -> Ojson.int n
  | Hist h ->
      let ints a = Ojson.Arr (Array.to_list (Array.map Ojson.int a)) in
      Ojson.Obj
        [
          ("buckets", ints h.bounds);
          ("counts", ints h.counts);
          ("count", Ojson.int h.count);
          ("sum", Ojson.int h.sum);
        ]

let sample_of m =
  match m.kind with
  | Counter c -> Count (Atomic.get c.n)
  | Gauge g -> Level (Atomic.get g.g)
  | Histogram h ->
      Hist
        {
          bounds = h.bounds;
          counts = Array.map Atomic.get h.counts;
          count = Atomic.get h.count;
          sum = Atomic.get h.sum;
        }

let snapshot () =
  locked (fun () ->
      Hashtbl.fold (fun name m acc -> (name, sample_of m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff after before =
  List.map
    (fun (name, sa) ->
      match (sa, List.assoc_opt name before) with
      | Count a, Some (Count b) -> (name, Count (a - b))
      (* gauges are instantaneous levels, not accumulations: keep the
         [after] value in a diff *)
      | Level _, _ -> (name, sa)
      | Hist a, Some (Hist b) when a.bounds = b.bounds ->
          ( name,
            Hist
              {
                bounds = a.bounds;
                counts = Array.mapi (fun i c -> c - b.counts.(i)) a.counts;
                count = a.count - b.count;
                sum = a.sum - b.sum;
              } )
      | _, _ -> (name, sa))
    after

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m.kind with
          | Counter c -> Atomic.set c.n 0
          | Gauge g -> Atomic.set g.g 0
          | Histogram h ->
              Array.iter (fun c -> Atomic.set c 0) h.counts;
              Atomic.set h.count 0;
              Atomic.set h.sum 0)
        registry)
