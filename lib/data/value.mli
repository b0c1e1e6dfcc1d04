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

val of_string : string -> t

val string : string -> t

val int : int -> t

val float : float -> t

val to_string : t -> string

val as_number : t -> float option

(** Three-way comparison: numeric when both coerce, else string compare. *)
val compare_values : t -> t -> int

val equal_values : t -> t -> bool

(** Arithmetic lifts ints when both are ints, floats otherwise; [None]
    on non-numbers (queries treat that as a failed predicate, never an
    error — semi-structured data is allowed to be ragged). *)
val arith : [< `Add | `Div | `Mul | `Sub ] -> t -> t -> t option
