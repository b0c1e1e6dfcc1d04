(** Atomic values at the leaves of semi-structured data.

    XML is untyped text, but every query language in the paper compares
    contents numerically ("items that cost more than 0,79", "older than
    60").  Values therefore carry a dynamic type inferred at load time;
    comparisons are numeric when both sides are numeric, lexicographic
    otherwise — the standard semi-structured convention. *)

type t =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool

let of_string s =
  (* Inference is deliberately conservative: only the full trimmed token
     converts; "12 monkeys" stays a string. *)
  let t = String.trim s in
  if t = "" then String s
  else
    match int_of_string_opt t with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt t with
      | Some f -> Float f
      | None -> (
        match String.lowercase_ascii t with
        | "true" -> Bool true
        | "false" -> Bool false
        | _ -> String s))

let string v = String v
let int v = Int v
let float v = Float v
let bool v = Bool v

let to_string = function
  | String s -> s
  | Int i -> string_of_int i
  | Float f ->
    (* Print integral floats without the trailing dot ambiguity. *)
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else string_of_float f
  | Bool b -> string_of_bool b

let as_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | String s -> float_of_string_opt (String.trim s)
  | Bool _ -> None

(** Three-way comparison: numeric when both coerce, else string compare. *)
let compare_values a b =
  match as_number a, as_number b with
  | Some x, Some y -> Float.compare x y
  | (Some _ | None), _ -> String.compare (to_string a) (to_string b)

let equal_values a b = compare_values a b = 0

(** Arithmetic lifts ints when both are ints, floats otherwise; [None]
    on non-numbers (queries treat that as a failed predicate, never an
    error — semi-structured data is allowed to be ragged). *)
let arith op a b =
  match a, b with
  | Int x, Int y -> (
    match op with
    | `Add -> Some (Int (x + y))
    | `Sub -> Some (Int (x - y))
    | `Mul -> Some (Int (x * y))
    | `Div -> if y = 0 then None else Some (Int (x / y)))
  | _ -> (
    match as_number a, as_number b with
    | Some x, Some y -> (
      match op with
      | `Add -> Some (Float (x +. y))
      | `Sub -> Some (Float (x -. y))
      | `Mul -> Some (Float (x *. y))
      | `Div -> if y = 0.0 then None else Some (Float (x /. y)))
    | (Some _ | None), _ -> None)
