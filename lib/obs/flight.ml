(* Always-on bounded event ring — see flight.mli. *)

type event = { ts : float; name : string; attrs : (string * string) list }

let capacity = 512

let dummy = { ts = 0.; name = ""; attrs = [] }

let mu = Mutex.create ()
let buf = Array.make capacity dummy
let total = ref 0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let t0 = Unix.gettimeofday ()

let note name attrs =
  let ev = { ts = Unix.gettimeofday () -. t0; name; attrs } in
  locked (fun () ->
      buf.(!total mod capacity) <- ev;
      incr total)

let recent () =
  locked (fun () ->
      let n = !total in
      if n <= capacity then Array.to_list (Array.sub buf 0 n)
      else List.init capacity (fun i -> buf.((n + i) mod capacity)))

let dropped () = locked (fun () -> if !total > capacity then !total - capacity else 0)

let clear () =
  locked (fun () ->
      Array.fill buf 0 capacity dummy;
      total := 0)

let to_ojson e =
  Ojson.Obj
    [
      ("ts", Ojson.fixed 6 e.ts);
      ("name", Ojson.Str e.name);
      ("attrs", Ojson.obj (fun v -> Ojson.Str v) e.attrs);
    ]
