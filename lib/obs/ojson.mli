(** The only JSON writer in this repository, and the reader for what it
    writes. Every emitter builds a {!t} and prints it with {!render};
    no other module escapes JSON strings. Emitters that assemble output
    in place append to a [Buffer.t] with {!add_to_buffer} or
    {!string_formatter}. [parse] reads omegad requests
    and omreport/omcheck inputs without an external dependency.

    {b Numbers.} [Num f] is a float; [Lit s] is a number literal that
    [render] prints verbatim, such as an exact integer past 2{^53} or a
    fixed-precision float. [parse] reads a literal as a [Num] when its
    double is below 2{^52} in magnitude (and, if that double is an
    integer, the literal denotes exactly that integer) or is an integer
    whose digits are the literal; any other literal ([9007199254740993],
    [1e23], [1e400], [1.00000000000000000001]) must match the JSON
    number grammar and is a [Lit]. An integral [Num] is therefore always
    the literal's exact value, and
    [parse (render j) = Ok j] when [j]'s [Num]s are finite and below
    2{^52} and its [Lit]s are ones [parse] returns. Strings support the
    standard JSON escapes, with non-BMP [u]-escape surrogate pairs
    decoded to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Lit of string  (** a JSON number literal, rendered verbatim *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Deepest array/object nesting {!parse} accepts (512). *)
val max_depth : int

(** Parse one complete JSON value; trailing non-whitespace is an error.
    [Error msg] carries a character offset. Nesting deeper than
    {!max_depth} is an [Error], not a stack overflow. *)
val parse : string -> (t, string) result

(** Render to compact JSON (no whitespace). Integral [Num]s print
    without a fractional part; non-finite [Num]s render as [null]. *)
val render : t -> string

(** [add_to_buffer b j] appends [render j] to [b]; [render] is defined
    by it. *)
val add_to_buffer : Buffer.t -> t -> unit

(** [string_formatter b] is a fresh formatter (margin 78) that appends
    what it prints to [b] escaped as the inside of a JSON string: the
    bytes [render (Str s)] puts between its quotes, [s] being the
    printed text. Flush it before reading [b]. *)
val string_formatter : Buffer.t -> Format.formatter

(** {1 Builders} *)

(** [obj f kvs] is the object mapping each key of [kvs] to [f] of its
    value, in order. *)
val obj : ('a -> t) -> (string * 'a) list -> t

(** [int n] is [n] as an exact literal. *)
val int : int -> t

(** [fixed p x] is [x] printed with [p] decimals (["%.*f"]). *)
val fixed : int -> float -> t

(** {1 Accessors} *)

val member : string -> t -> t option

(** @raise Failure when the key is missing or [t] is not an object. *)
val member_exn : string -> t -> t

(** [to_float] and [to_int] accept [Num] and [Lit]; [to_int] only an
    integral value that fits an [int]. *)
val to_float : t -> float option
val to_int : t -> int option
val to_string : t -> string option
val to_list : t -> t list option
val obj_keys : t -> string list
