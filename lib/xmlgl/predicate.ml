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

let node_value env qid =
  if qid < 0 || qid >= Array.length env.binding then None
  else
    let dn = env.binding.(qid) in
    if dn < 0 then None else Some (Graph.node_value env.data dn)

let rec eval_operand env ~self (op : Ast.operand) : Value.t option =
  match op with
  | Ast.Const v -> Some v
  | Ast.Self -> self
  | Ast.Node_value qid -> node_value env qid
  | Ast.Arith (aop, a, b) -> (
    match eval_operand env ~self a, eval_operand env ~self b with
    | Some x, Some y ->
      let o =
        match aop with
        | Ast.Add -> `Add
        | Ast.Sub -> `Sub
        | Ast.Mul -> `Mul
        | Ast.Div -> `Div
      in
      Value.arith o x y
    | (Some _ | None), _ -> None)

(* Substring tests compare in place and allocate nothing: they run once
   per candidate. *)
let sub_at ~needle hay i =
  let nl = String.length needle in
  i + nl <= String.length hay
  &&
  let k = ref 0 in
  while !k < nl && String.unsafe_get hay (i + !k) = String.unsafe_get needle !k do
    incr k
  done;
  !k = nl

let contains_sub ~needle hay =
  let last = String.length hay - String.length needle in
  let i = ref 0 in
  while !i <= last && not (sub_at ~needle hay !i) do
    incr i
  done;
  !i <= last

type compiled = env -> self:Value.t option -> bool

(** [compile p] builds [p]'s regexes once, like WG-Log conditions; the
    result evaluates [p] against a binding and the node's own value. *)
let rec compile (p : Ast.predicate) : compiled =
  let on_value a f env ~self =
    match eval_operand env ~self a with Some v -> f (Value.to_string v) | None -> false
  in
  match p with
  | Ast.Compare (op, a, b) -> (
    fun env ~self ->
      match eval_operand env ~self a, eval_operand env ~self b with
      | Some x, Some y -> (
        let c = Value.compare_values x y in
        match op with
        | Ast.Eq -> c = 0
        | Ast.Neq -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | Ast.Ge -> c >= 0)
      | (Some _ | None), _ -> false)
  | Ast.Contains_str (a, needle) -> on_value a (contains_sub ~needle)
  | Ast.Starts_with (a, prefix) -> on_value a (fun s -> sub_at ~needle:prefix s 0)
  | Ast.Matches (a, pattern) ->
    on_value a (Gql_regex.Chre.search (Gql_regex.Chre.compile pattern))
  | Ast.And (a, b) ->
    let a = compile a and b = compile b in
    fun env ~self -> a env ~self && b env ~self
  | Ast.Or (a, b) ->
    let a = compile a and b = compile b in
    fun env ~self -> a env ~self || b env ~self
  | Ast.Not a ->
    let a = compile a in
    fun env ~self -> not (a env ~self)

(** One-shot evaluation; callers that test many candidates {!compile}
    once instead. *)
let eval env ~self p = compile p env ~self

(** Does the predicate only depend on the node itself (no cross-node
    references)?  Such predicates are pushed into candidate selection. *)
let is_local (p : Ast.predicate) = Ast.pred_refs p = []

(** A constant the node's own value must equal for [p] to hold, when one
    is syntactically evident ([self = c], possibly under [And]).  Used to
    narrow index candidates: any node matching [p] also satisfies the
    returned equality, so the value index yields a sound superset. *)
let rec equality_const (p : Ast.predicate) : Value.t option =
  match p with
  | Ast.Compare (Ast.Eq, Ast.Self, Ast.Const v)
  | Ast.Compare (Ast.Eq, Ast.Const v, Ast.Self) ->
    Some v
  | Ast.And (a, b) -> (
    match equality_const a with
    | Some v -> Some v
    | None -> equality_const b)
  | Ast.Compare _ | Ast.Contains_str _ | Ast.Starts_with _ | Ast.Matches _
  | Ast.Or _ | Ast.Not _ ->
    None
