(** Recursive-descent parser for the XPath subset (abbreviated syntax).

    Precedence, low to high: or, and, equality, relational, additive,
    multiplicative (star, div, mod), unary minus, union, path.  Paths
    support [/], [//], [@], [.], [..], the star wildcard, [axis::test]
    and predicates. *)

exception Error of string * int

(** Parse a complete XPath expression; raises {!Error}. *)
val expr : string -> Ast.expr

