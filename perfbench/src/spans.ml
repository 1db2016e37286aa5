(* The traced run's span recorder. Each span is one call the harness
   makes into a layer's public function: its name, start and end, the
   span that was open around it, and the request id shared by one
   query's spans. Spans live in memory (one buffer per domain) and are
   written out when the run ends. While disabled (the default), [span]
   is a plain call. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request id; spans of one query share it *)
  name : string;
  t0 : float;
  t1 : float;
  minor_words : float;  (** allocated by this domain inside the span *)
  major_words : float;
}

let on = Atomic.make false

let set_enabled b = Atomic.set on b

let enabled () = Atomic.get on

let next_id = Atomic.make 1

(* Per-domain state: finished spans, the open span's id and the
   current request id. Buffers are registered globally so [all] sees
   spans of domains that have ended. *)
type local = { mutable spans : t list; mutable open_ : int; mutable cur_req : int }

let registry = ref []

let registry_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let l = { spans = []; open_ = 0; cur_req = 0 } in
      Mutex.lock registry_mu;
      registry := l :: !registry;
      Mutex.unlock registry_mu;
      l)

let set_request req = if enabled () then (Domain.DLS.get key).cur_req <- req

let span name f =
  if not (enabled ()) then f ()
  else begin
    let l = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = l.open_ in
    l.open_ <- id;
    let mi0, _, ma0 = Gc.counters () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let mi1, _, ma1 = Gc.counters () in
      l.open_ <- parent;
      l.spans <-
        {
          id;
          parent;
          req = l.cur_req;
          name;
          t0;
          t1;
          minor_words = mi1 -. mi0;
          major_words = ma1 -. ma0;
        }
        :: l.spans
    in
    Fun.protect ~finally:finish f
  end

let all () =
  Mutex.lock registry_mu;
  let l = List.concat_map (fun l -> l.spans) !registry in
  Mutex.unlock registry_mu;
  List.sort (fun a b -> compare a.id b.id) l

let clear () =
  Mutex.lock registry_mu;
  List.iter (fun l -> l.spans <- []) !registry;
  Mutex.unlock registry_mu

let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus the part of it its children
   cover (children of one span never overlap: a caller waits). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

(* Summed self time per span name, in descending order. *)
let self_by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (n + 1, t +. self))
    (self_times spans);
  Hashtbl.fold (fun name (n, t) acc -> (name, n, t) :: acc) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f,\"minor_words\":%.0f,\"major_words\":%.0f}\n"
            s.id s.parent s.req s.name s.t0 s.t1 s.minor_words s.major_words)
        spans)
