type node_id = int

(* ------------------------------------------------------------------ *)
(* Predicates on content                                               *)
(* ------------------------------------------------------------------ *)

type arith_op = Add | Sub | Mul | Div

type operand =
  | Const of Gql_data.Value.t
  | Self
  | Node_value of node_id
  | Arith of arith_op * operand * operand

type cmp_op = Eq | Neq | Lt | Le | Gt | Ge

type predicate =
  | Compare of cmp_op * operand * operand
  | Contains_str of operand * string
  | Starts_with of operand * string
  | Matches of operand * string
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

(* ------------------------------------------------------------------ *)
(* Query graph                                                         *)
(* ------------------------------------------------------------------ *)

type name_test =
  | Exact of string
  | Any_name
  | Name_re of string

type qnode_kind =
  | Q_elem of name_test
  | Q_content
  | Q_attr

type qnode = {
  q_kind : qnode_kind;
  q_pred : predicate option;
}

type qedge_kind =
  | Contains of { ordered : bool; position : int option }
  | Deep
  | Attr_of of string
  | Ref_to of string option
  | Absent

type qedge = { q_src : node_id; q_kind_e : qedge_kind; q_dst : node_id }

type query = { q_nodes : qnode array; q_edges : qedge list }

(* ------------------------------------------------------------------ *)
(* Construction graph                                                  *)
(* ------------------------------------------------------------------ *)

type agg_fn = Count | Sum | Min | Max | Avg

type cnode_kind =
  | C_elem of { name : string; per : node_id option }
  | C_copy_of of { source : node_id; deep : bool }
  | C_value_of of node_id
  | C_const of Gql_data.Value.t
  | C_all of node_id
  | C_group of { by : node_id }
  | C_aggregate of { fn : agg_fn; source : node_id }
  | C_unnest of node_id

type cnode = { c_kind : cnode_kind }

type cedge = {
  c_parent : node_id;
  c_child : node_id;
  c_ord : int;
  c_as_attr : string option;
}

type construction = {
  c_nodes : cnode array;
  c_edges : cedge list;
  c_roots : node_id list;
}

type rule = { query : query; construction : construction }

type program = { rules : rule list; result_root : string }

(* ------------------------------------------------------------------ *)
(* Builder: a tiny imperative API used by the textual parser, the
   examples and the tests.                                             *)
(* ------------------------------------------------------------------ *)

module Build = struct
  type t = {
    mutable qn : qnode list;  (** reversed *)
    mutable qn_count : int;
    mutable qe : qedge list;
    mutable cn : cnode list;  (** reversed *)
    mutable cn_count : int;
    mutable ce : cedge list;
    mutable roots : node_id list;
  }

  let create () =
    { qn = []; qn_count = 0; qe = []; cn = []; cn_count = 0; ce = []; roots = [] }

  let qnode b ?pred kind =
    let id = b.qn_count in
    b.qn <- { q_kind = kind; q_pred = pred } :: b.qn;
    b.qn_count <- id + 1;
    id

  let q_elem b ?pred name = qnode b ?pred (Q_elem (Exact name))
  let q_any b ?pred () = qnode b ?pred (Q_elem Any_name)
  let q_content b ?pred () = qnode b ?pred Q_content
  let q_attr_node b ?pred () = qnode b ?pred Q_attr

  let qedge b ?(ordered = false) ?position src dst =
    b.qe <- { q_src = src; q_kind_e = Contains { ordered; position }; q_dst = dst } :: b.qe

  let qdeep b src dst = b.qe <- { q_src = src; q_kind_e = Deep; q_dst = dst } :: b.qe

  let qattr b src name dst =
    b.qe <- { q_src = src; q_kind_e = Attr_of name; q_dst = dst } :: b.qe

  let qref b ?name src dst =
    b.qe <- { q_src = src; q_kind_e = Ref_to name; q_dst = dst } :: b.qe

  let qabsent b src dst =
    b.qe <- { q_src = src; q_kind_e = Absent; q_dst = dst } :: b.qe

  let cnode b kind =
    let id = b.cn_count in
    b.cn <- { c_kind = kind } :: b.cn;
    b.cn_count <- id + 1;
    id

  let c_elem b ?per name = cnode b (C_elem { name; per })
  let c_copy b ?(deep = false) source = cnode b (C_copy_of { source; deep })
  let c_value b source = cnode b (C_value_of source)
  let c_const b v = cnode b (C_const v)
  let c_all b source = cnode b (C_all source)
  let c_group b ~by = cnode b (C_group { by })
  let c_unnest b source = cnode b (C_unnest source)
  let c_aggregate b fn source = cnode b (C_aggregate { fn; source })

  let cedge b ?as_attr ~ord parent child =
    b.ce <- { c_parent = parent; c_child = child; c_ord = ord; c_as_attr = as_attr } :: b.ce

  let root b id = b.roots <- b.roots @ [ id ]

  let finish b : rule =
    {
      query = { q_nodes = Array.of_list (List.rev b.qn); q_edges = List.rev b.qe };
      construction =
        {
          c_nodes = Array.of_list (List.rev b.cn);
          c_edges = List.rev b.ce;
          c_roots = b.roots;
        };
    }
end

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

type error = string

let rec pred_refs = function
  | Compare (_, a, b) -> operand_refs a @ operand_refs b
  | Contains_str (a, _) | Starts_with (a, _) | Matches (a, _) -> operand_refs a
  | And (a, b) | Or (a, b) -> pred_refs a @ pred_refs b
  | Not a -> pred_refs a

and operand_refs = function
  | Const _ | Self -> []
  | Node_value n -> [ n ]
  | Arith (_, a, b) -> operand_refs a @ operand_refs b

(** All query nodes referenced by the construction side. *)
let referenced_qnodes (c : construction) =
  Array.to_list c.c_nodes
  |> List.filter_map (fun n ->
         match n.c_kind with
         | C_copy_of { source; _ } | C_value_of source | C_all source
         | C_group { by = source } | C_unnest source
         | C_aggregate { source; _ }
         | C_elem { per = Some source; _ } ->
           Some source
         | C_elem { per = None; _ } | C_const _ -> None)
  |> List.sort_uniq compare

let check_rule (r : rule) : error list =
  let nq = Array.length r.query.q_nodes in
  let nc = Array.length r.construction.c_nodes in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let check_q id ctx = if id < 0 || id >= nq then err "%s: query node %d out of range" ctx id in
  let check_c id ctx =
    if id < 0 || id >= nc then err "%s: construction node %d out of range" ctx id
  in
  List.iter
    (fun e ->
      check_q e.q_src "query edge";
      check_q e.q_dst "query edge";
      if e.q_src < nq && e.q_dst < nq then begin
        (match r.query.q_nodes.(e.q_src).q_kind with
        | Q_elem _ -> ()
        | Q_content | Q_attr -> err "query edge %d->%d: source must be an element box" e.q_src e.q_dst);
        match e.q_kind_e, r.query.q_nodes.(e.q_dst).q_kind with
        | Attr_of _, Q_attr -> ()
        | Attr_of _, (Q_elem _ | Q_content) ->
          err "attribute edge %d->%d must target a filled circle" e.q_src e.q_dst
        | (Contains _ | Deep | Ref_to _ | Absent), _ -> ()
      end)
    r.query.q_edges;
  (* Predicates may only reference existing nodes. *)
  Array.iteri
    (fun id n ->
      match n.q_pred with
      | Some p -> List.iter (fun m -> check_q m (Printf.sprintf "predicate on node %d" id)) (pred_refs p)
      | None -> ())
    r.query.q_nodes;
  (* Construction refs. *)
  List.iter (fun id -> check_q id "construction reference") (referenced_qnodes r.construction);
  List.iter
    (fun e ->
      check_c e.c_parent "construction edge";
      check_c e.c_child "construction edge")
    r.construction.c_edges;
  List.iter (fun id -> check_c id "construction root") r.construction.c_roots;
  if r.construction.c_roots = [] then err "rule has no construction root";
  (* The construction DAG must be acyclic. *)
  let g = Gql_graph.Digraph.create ~dummy:() in
  for _ = 1 to nc do
    ignore (Gql_graph.Digraph.add_node g ())
  done;
  List.iter
    (fun e ->
      if e.c_parent < nc && e.c_child < nc then
        Gql_graph.Digraph.add_edge g ~src:e.c_parent ~dst:e.c_child ())
    r.construction.c_edges;
  if not (Gql_graph.Algo.is_acyclic g) then err "construction graph is cyclic";
  List.rev !errs

let check_program (p : program) : error list =
  if p.rules = [] then [ "program has no rules" ]
  else List.concat_map check_rule p.rules
