(** Evaluation of XML-GL content predicates against a (partial) binding.

    Predicates live on content circles and attribute dots in the query
    graph; operands may refer to the node's own value ([Self]), to other
    query nodes' values (value joins and the arithmetic conditions of
    QBE-style condition boxes) and to constants.

    Evaluation is three-valued in spirit but collapses to [false] on
    missing information (an unbound reference or a non-numeric operand of
    an arithmetic expression): semi-structured data is ragged by design
    and a failed lookup is a non-match, never a crash. *)

open Gql_data

type env = {
  data : Graph.t;
  binding : int array;  (** query node id -> data node, or -1 *)
}

type compiled = env -> self:Value.t option -> bool

(** [compile p] builds [p]'s regexes once, like WG-Log conditions; the
    result evaluates [p] against a binding and the node's own value. *)
val compile : Ast.predicate -> compiled

(** Does the predicate only depend on the node itself (no cross-node
    references)?  Such predicates are pushed into candidate selection. *)
val is_local : Ast.predicate -> bool

(** A constant the node's own value must equal for [p] to hold, when one
    is syntactically evident ([self = c], possibly under [And]).  Used to
    narrow index candidates: any node matching [p] also satisfies the
    returned equality, so the value index yields a sound superset. *)
val equality_const : Ast.predicate -> Gql_data.Value.t option
