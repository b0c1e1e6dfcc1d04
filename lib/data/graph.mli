(** The semi-structured data graph (OEM-style).

    This is the model both query languages evaluate over.  A node is
    either a *complex* object carrying a label (element name / entity
    type) or an *atom* carrying a value; edges carry a name, an edge kind
    and an optional position:

    - [Child]: XML containment; [ord] records document order so XML-GL's
      "ordered content" tick can be honoured;
    - [Attribute]: XML attributes (the paper draws them as filled
      circles);
    - [Ref]: a resolved ID/IDREF link — these are what make the data a
      graph rather than a tree;
    - [Rel]: a named relation edge for WG-Log-style entity databases
      (e.g. [offers] between [Restaurant] and [Menu]). *)

type node_kind =
  | Complex of string
  | Atom of Value.t

type edge_kind = Child | Attribute | Ref | Rel

type edge = {
  name : string;
  kind : edge_kind;
  ord : int option;
  gen : int;
      (** derivation generation: 0 for base facts, n for edges added by
          the n-th round of a WG-Log fixpoint — what makes semi-naive
          evaluation possible *)
}

type digraph = (node_kind, edge) Gql_graph.Digraph.t

(** The mutable adjacency representation is held behind a one-shot lazy
    cell so a snapshot loaded from disk ({!Gql_data.Store}) can serve
    indexed queries off its CSR planes without ever paying the cons-list
    rebuild; the {!Digraph} materialises only when an engine actually
    walks it (scan routes, WG-Log forks, dot rendering).  Node kinds are
    read from the snapshot's payload plane while the cell is empty, so
    testing and rendering nodes never thaws.  Graphs built in memory
    start with the cell already filled, so nothing changes for them. *)
type t = {
  cell : digraph option Atomic.t;
  thaw : unit -> digraph;  (** called at most once, under [thaw_lock] *)
  kinds : node_kind array;  (** node payloads while unforced *)
  hint_nodes : int;  (** counts while unforced — keeps [Index.refresh]'s *)
  hint_edges : int;  (** version check from forcing the thaw *)
  mutable roots : Gql_graph.Digraph.node list;
}

type node = Gql_graph.Digraph.node

val dummy_kind : node_kind

(** The underlying mutable graph, thawing it on first use.  The slow
    path runs under a global lock so concurrent server domains force a
    loaded snapshot exactly once. *)
val digraph : t -> digraph

val create : unit -> t

(** A graph whose adjacency thaws on demand.  [kinds] and
    [n_nodes]/[n_edges] must equal the payloads and counts of the graph
    [thaw] will produce: they are answered from here while the cell is
    empty. *)
val of_thaw :
  kinds:node_kind array ->
  n_nodes:int ->
  n_edges:int -> roots:Gql_graph.Digraph.node list -> (unit -> digraph) -> t

(** An independent copy of the data graph; forked snapshots let the
    deductive WG-Log evaluator saturate a private graph while the
    original stays frozen (the server's per-request semantics). *)
val copy : t -> t

val add_complex : t -> string -> Gql_graph.Digraph.node

val add_atom : t -> Value.t -> Gql_graph.Digraph.node

val add_root : t -> Gql_graph.Digraph.node -> unit

val child_edge : ?ord:int -> string -> edge

val attr_edge : string -> edge

val ref_edge : string -> edge

val rel_edge : ?gen:int -> string -> edge

val link : t -> src:int -> dst:int -> edge -> unit

val kind : t -> int -> node_kind

val label : t -> int -> string option

val is_atom : t -> int -> bool

val out : t -> int -> (int * edge) list

val inn : t -> int -> (int * edge) list

val n_nodes : t -> int

val n_edges : t -> int

val roots : t -> Gql_graph.Digraph.node list

(** Children in stored order: [Child] edges sorted by [ord]. *)
val children : t -> int -> (int * edge) list

val attributes : t -> int -> (string * Value.t) list

val refs : t -> int -> (string * int) list

val rels : t -> int -> (string * int) list

(** The string-value of a node: its atom, or the concatenation of the
    string-values of its children in order (XPath-style). *)
val string_value : t -> int -> string

(** Typed value of a node: atoms as themselves, complex nodes by their
    string-value with inference. *)
val node_value : t -> int -> Value.t

(** All nodes with a given label. *)
val nodes_labelled : t -> string -> int list

val to_dot : t -> string
