type t = Named of string | Wild of int

let named s = Named s

(* Wild ids come from a counter cell that is atomic (concurrent domains
   minting from the same cell never collide; ids from one cell are
   monotonic — and [compare] below only ever observes relative order) and *swappable per domain*: a long-running
   server installs a fresh cell per request so each request numbers its
   wilds from 1 regardless of what ran before, making answers and
   certificates byte-identical across repeats. The default cell is
   process-global, so standalone tools behave exactly as before. *)
let default_counter = Atomic.make 0

let counter_cell : int Atomic.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref default_counter)

let current_counter () = !(Domain.DLS.get counter_cell)
let install_counter c = Domain.DLS.get counter_cell := c
let new_counter () = Atomic.make 0
let fresh_wild () = Wild (1 + Atomic.fetch_and_add (current_counter ()) 1)
let reset_fresh () = Atomic.set (current_counter ()) 0

let is_wild = function Wild _ -> true | Named _ -> false

let compare a b =
  match (a, b) with
  | Named x, Named y -> String.compare x y
  | Named _, Wild _ -> -1
  | Wild _, Named _ -> 1
  | Wild i, Wild j -> Int.compare i j

let equal a b = compare a b = 0

let hash = function
  | Named s -> Hashtbl.hash s
  | Wild i -> (i * 65599) lxor 0x5757

let to_string = function Named s -> s | Wild i -> "$" ^ string_of_int i
let add_to_buffer b = function
  | Named s -> Buffer.add_string b s
  | Wild i ->
      Buffer.add_char b '$';
      Buffer.add_string b (string_of_int i)

let pp fmt v = Format.pp_print_string fmt (to_string v)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
