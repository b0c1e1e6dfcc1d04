type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Attribute
  | Following_sibling
  | Preceding_sibling
  | Following
  | Preceding

type node_test =
  | Name of string
  | Wildcard
  | Text_test
  | Node_test
  | Comment_test

type expr =
  | Path of path
  | Literal of string
  | Number of float
  | Binop of binop * expr * expr
  | Neg of expr
  | Call of string * expr list

and binop =
  | Or | And
  | Eq | Neq | Lt | Le | Gt | Ge
  | Add | Sub | Mul | Div | Mod
  | Union

and step = { axis : axis; test : node_test; predicates : expr list }

and path = {
  absolute : bool;
  steps : step list;
}
