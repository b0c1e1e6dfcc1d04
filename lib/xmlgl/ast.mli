(** Abstract syntax of XML-GL.

    An XML-GL *rule* is the paper's pair of graphs drawn side by side:
    the query graph (left) and the construction graph (right).  The
    visual vocabulary maps onto this AST as follows:

    - labelled boxes            -> {!qnode_kind.Q_elem} / {!cnode_kind.C_elem}
    - hollow circles (PCDATA)   -> {!qnode_kind.Q_content}
    - filled circles (attributes) -> {!qnode_kind.Q_attr}
    - containment edges         -> {!qedge_kind.Contains} (the short stroke
      crossing the first edge = [ordered = true])
    - descendant ("at any depth") edges -> {!qedge_kind.Deep}
    - the asterisk on a box     -> [deep = true] on a {!cnode_kind.C_copy_of}
    - node sharing (join)       -> two query edges pointing at the same
      {!node_id}
    - triangles                 -> {!cnode_kind.C_all}
    - list icons with a grouping edge -> {!cnode_kind.C_group}

    A *program* is a non-empty list of rules; their results are
    concatenated under one result root, as in the paper. *)

type node_id = int

type arith_op = Add | Sub | Mul | Div

type operand =
  | Const of Gql_data.Value.t
  | Self  (** the value of the node the predicate is attached to *)
  | Node_value of node_id  (** the value bound to another query node *)
  | Arith of arith_op * operand * operand

type cmp_op = Eq | Neq | Lt | Le | Gt | Ge

type predicate =
  | Compare of cmp_op * operand * operand
  | Contains_str of operand * string
  | Starts_with of operand * string
  | Matches of operand * string  (** regex between slashes in the figures *)
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

type name_test =
  | Exact of string
  | Any_name  (** wildcard box *)
  | Name_re of string

type qnode_kind =
  | Q_elem of name_test
  | Q_content  (** hollow circle: a text child *)
  | Q_attr

type qnode = {
  q_kind : qnode_kind;
  q_pred : predicate option;  (** attached condition, if any *)
}

type qedge_kind =
  | Contains of { ordered : bool; position : int option }
      (** direct containment; [position] pins the child index *)
  | Deep  (** descendant at any depth (>= 1 containment step) *)
  | Attr_of of string  (** element -> attribute circle *)
  | Ref_to of string option  (** follow an ID/IDREF or relation edge *)
  | Absent

type qedge = { q_src : node_id; q_kind_e : qedge_kind; q_dst : node_id }

type query = { q_nodes : qnode array; q_edges : qedge list }

type agg_fn = Count | Sum | Min | Max | Avg

type cnode_kind =
  | C_elem of { name : string; per : node_id option }
      (** plain box: build a fresh element.  When [per] references a
          query node the box is attached to the query side and is
          instantiated once per distinct binding of that node ("for each
          element the query pattern has matched, an element is
          constructed"); without [per] it is a collector, instantiated
          once in its context. *)
  | C_copy_of of { source : node_id; deep : bool }
      (** emit the element bound to a query node; [deep] (the asterisk)
          copies all descendants, otherwise children come from the
          construction edges *)
  | C_value_of of node_id  (** text node carrying a query node's value *)
  | C_const of Gql_data.Value.t  (** literal text *)
  | C_all of node_id
      (** triangle: collect every binding of the referenced query node
          under a single parent instance *)
  | C_group of { by : node_id }
      (** list icon: one instance of the subtree per distinct value of
          the grouping query node *)
  | C_aggregate of { fn : agg_fn; source : node_id }
      (** QBE's CNT./SUM./MIN./MAX./AVG. keywords, which the XML-GL
          family inherits: a text node carrying the aggregate of the
          referenced query node's bindings in the current context *)
  | C_unnest of node_id

type cnode = { c_kind : cnode_kind }

type cedge = {
  c_parent : node_id;
  c_child : node_id;
  c_ord : int;  (** sibling order in the constructed element *)
  c_as_attr : string option;
      (** when set, the child value becomes this attribute of the parent *)
}

type construction = {
  c_nodes : cnode array;
  c_edges : cedge list;
  c_roots : node_id list;  (** top-level constructed elements, in order *)
}

type rule = { query : query; construction : construction }

type program = { rules : rule list; result_root : string }

module Build : sig
  type t = {
    mutable qn : qnode list;
    mutable qn_count : int;
    mutable qe : qedge list;
    mutable cn : cnode list;
    mutable cn_count : int;
    mutable ce : cedge list;
    mutable roots : node_id list;
  }
  val create : unit -> t
  val qnode : t -> ?pred:predicate -> qnode_kind -> int
  val q_elem : t -> ?pred:predicate -> string -> int
  val q_any : t -> ?pred:predicate -> unit -> int
  val q_content : t -> ?pred:predicate -> unit -> int
  val q_attr_node : t -> ?pred:predicate -> unit -> int
  val qedge :
    t -> ?ordered:bool -> ?position:int -> node_id -> node_id -> unit
  val qdeep : t -> node_id -> node_id -> unit
  val qattr : t -> node_id -> string -> node_id -> unit
  val qref : t -> ?name:string -> node_id -> node_id -> unit
  val qabsent : t -> node_id -> node_id -> unit
  val c_elem : t -> ?per:node_id -> string -> int
  val c_copy : t -> ?deep:bool -> node_id -> int
  val c_value : t -> node_id -> int
  val c_const : t -> Gql_data.Value.t -> int
  val c_all : t -> node_id -> int
  val c_group : t -> by:node_id -> int
  val c_unnest : t -> node_id -> int
  val c_aggregate : t -> agg_fn -> node_id -> int
  val cedge : t -> ?as_attr:string -> ord:int -> node_id -> node_id -> unit
  val root : t -> node_id -> unit
  val finish : t -> rule
end

type error = string

val pred_refs : predicate -> node_id list

val operand_refs : operand -> node_id list

(** Static checks a visual editor would enforce; the engine refuses
    ill-formed rules. *)
val check_rule : rule -> error list

val check_program : program -> error list
