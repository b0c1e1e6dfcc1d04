(** XPath evaluator over the flattened {!Index}.

    Values follow XPath 1.0: node-sets (sorted in document order —
    which coincides with index order), numbers, strings, booleans, with
    the standard coercions.  Position/size context is threaded for
    predicate evaluation. *)

type value =
  | Nodeset of int list  (** sorted, duplicate-free *)
  | Num of float
  | Str of string
  | Bool of bool

exception Eval_error of string

(** Evaluate an expression with the document root as context node. *)
val eval_expr : Index.t -> Ast.expr -> value

(** Evaluate and coerce to a node list. *)
val select : Index.t -> Ast.expr -> int list

val select_string : Index.t -> string -> int list

