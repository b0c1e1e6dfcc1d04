(** AST of the XPath 1.0 subset used as the navigational baseline.

    The paper positions graphical languages against the navigational
    family (XPath/XSLT/XQuery, section 2.2 of the supplied text).  To
    benchmark "who wins where" we need a faithful competitor: this module
    with {!Parse} and {!Eval} implements the XPath fragment that covers
    every navigational query in the supplied text's examples (e.g.
    [/html/body//a[contains(./text(),"Xcerpt") and starts-with(./@href,"http:")]]). *)

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
  | Name of string  (** element (or attribute) name *)
  | Wildcard  (** [*] *)
  | Text_test  (** [text()] *)
  | Node_test  (** [node()] *)
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
  | Union  (** [|] on node-sets *)

and step = { axis : axis; test : node_test; predicates : expr list }

and path = {
  absolute : bool;  (** starts at the document root *)
  steps : step list;
}

