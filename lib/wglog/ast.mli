(** Abstract syntax of WG-Log rules.

    A WG-Log rule is *one* graph in which query and construction parts
    are distinguished by colour/thickness ("the querying graph structure
    is spanned through thin or red lines, while the construction
    structure is spanned by green or thick lines ... they share the same
    nodes, making variables obsolete").  The AST therefore tags every
    node and edge with a {!role} instead of splitting the rule in two.

    GraphLog heritage carried over: crossed-out (negated) edges, dashed
    edges bearing a regular path expression, and the aggregation
    triangle (here: a [Collect] construction edge). *)

type role = Query | Construct

type cmp_op = Eq | Neq | Lt | Le | Gt | Ge

(** Conditions attachable to value nodes (GraphLog shows attribute values
    as rectangles; comparisons against constants qualify them). *)
type condition =
  | Cmp of cmp_op * Gql_data.Value.t
  | Re of string

type node_kind =
  | Entity of string option  (** typed box; [None] = any entity (rare) *)
  | Value of Gql_data.Value.t option

type node = {
  n_role : role;
  n_kind : node_kind;
  n_cond : condition list;  (** all must hold *)
}

type edge_mode =
  | Plain
  | Negated  (** crossed-out; query role only *)
  | Regex of string Gql_regex.Syntax.t
      (** dashed; matches a path whose label word is in the language *)
  | Collect

type edge = {
  e_src : int;
  e_dst : int;
  e_label : string;  (** relation or slot name; unused for [Regex] *)
  e_role : role;
  e_mode : edge_mode;
}

type rule = { nodes : node array; edges : edge list }

type program = { schema : Schema.t option; rules : rule list }

module Build : sig
  type t = {
    mutable ns : node list;
    mutable count : int;
    mutable es : edge list;
  }
  val create : unit -> t
  val node : t -> ?role:role -> ?cond:condition list -> node_kind -> int
  val entity : t -> ?role:role -> ?cond:condition list -> string -> int
  val any_entity : t -> ?role:role -> ?cond:condition list -> unit -> int
  val value : t -> ?role:role -> ?cond:condition list -> unit -> int
  val const : t -> ?role:role -> Gql_data.Value.t -> int
  val edge :
    t ->
    ?role:role -> ?mode:edge_mode -> label:string -> int -> int -> unit
  val negated : t -> label:string -> int -> int -> unit
  val regex : t -> string Gql_regex.Syntax.t -> int -> int -> unit
  val collect : t -> int -> int -> unit
  val collect_as : t -> label:string -> int -> int -> unit
  val derive : t -> label:string -> int -> int -> unit
  val finish : t -> rule
end

type error = string

val query_nodes : rule -> int list

val construct_nodes : rule -> int list

val check_rule : rule -> error list

(** Check a rule against a schema: entity types exist, relation labels
    exist with compatible endpoint types, slot edges match declarations. *)
val check_against_schema : Schema.t -> rule -> error list

val check_program : program -> error list

(** Labels derived (green) and negated (red, crossed) by a program; a
    program is *stratifiable within one pass* only when no derived label
    is also negated — the classical safety condition.  Only tests call
    it so far; stratified WG-Log is its next caller. *)
val stratification_warnings : program -> string list
