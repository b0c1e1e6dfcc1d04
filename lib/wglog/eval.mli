(** WG-Log evaluation: embedding search plus deductive fixpoint.

    Rule semantics follow G-Log: for every embedding of the red (query)
    part in the database, the green (construction) part must exist; the
    engine *adds* the missing nodes and edges.  Construction nodes are
    Skolemised — keyed by (rule, node, bindings of the query nodes their
    instance depends on) — so re-applying a rule never duplicates, which
    both gives the deductive fixpoint its termination and implements the
    aggregation triangle: a collecting node depends on no query binding
    and is therefore created exactly once, with one [Collect] edge per
    binding.

    Programs iterate rules to fixpoint.  Two strategies, compared by
    experiment E8:
    - [`Naive]: every round matches the full graph;
    - [`Semi_naive]: from round 2 on, each rule is re-matched once per
      query edge with that edge restricted to the previous round's delta
      (edges carry a generation stamp).  Rules whose query part contains
      a regular-path edge fall back to naive matching for correctness
      (a new edge can extend a path without being the matched edge). *)

open Gql_data

type stats = {
  rounds : int;
  embeddings_found : int;
  nodes_added : int;
  edges_added : int;
}

exception Invalid_query of string

type neg_check = {
  nc_anchor : int;  (** rule node id of the bound endpoint *)
  nc_dir : [ `Out | `In ];  (** edge direction relative to the anchor *)
  nc_label : string;
  nc_spec : Ast.node;  (** what the unconstrained endpoint would match *)
}

type compiled_query = {
  pattern : (Graph.node_kind, Graph.edge) Gql_graph.Homo.pattern;
  query_ids : int array;  (** pattern position -> rule node id *)
  node_specs : Ast.node array;  (** pattern position -> rule node *)
  edge_names : string option list;
      (** aligned with [pattern.p_edges]: the WG-Log label of each
          Direct/Negated edge ([None] for regular paths) — what the
          index-backed provider partitions adjacency by *)
  has_regex : bool;
  n_pattern_edges : int;
  neg_checks : neg_check list;
      (** GraphLog negation with a free endpoint: NOT EXISTS any such
          neighbour (the crossed edge universally quantifies the
          otherwise-unconstrained node) *)
  global_negs : (string * Ast.node * Ast.node) list;
      (** both endpoints free: no matching edge anywhere in the graph *)
}

val compile_query : Ast.rule -> compiled_query

(** Index-backed candidates and navigation for a compiled query.

    Candidates: typed entity circles hit the label index, constant value
    rectangles the (normalised) value index; untyped circles and free
    rectangles still restrict the scan to the right node class.  Every
    list is a sorted superset — the matcher re-applies the node
    predicate, so conditions on rectangles stay sound.

    Navigation: a labelled Direct/Negated edge checks only the edge
    name ([label_matches]), which is exactly what [Index.nav_name]
    partitions by, so its links test is exact; regular paths run over
    the frozen CSR view. *)
val provider :
  Gql_data.Index.t ->
  compiled_query ->
  (Gql_data.Graph.node_kind, Gql_data.Graph.edge) Gql_graph.Homo.provider

val specialised_pattern :
  Gql_data.Index.t ->
  compiled_query ->
  (Gql_data.Graph.node_kind, Gql_data.Graph.edge) Gql_graph.Homo.pattern

val global_negs_ok :
  ?index:Gql_data.Index.t -> Gql_data.Graph.t -> compiled_query -> bool

val neg_checks_ok :
  ?index:Gql_data.Index.t ->
  Gql_data.Graph.t -> compiled_query -> int array -> bool

(** Embeddings of the query part; each result maps rule node id -> data
    node (non-query nodes map to -1).  [domains] parallelises the
    embedding search (byte-identical enumeration, see {!Gql_graph.Par});
    the negation post-filters run sequentially on the calling domain. *)
val query_embeddings :
  ?pre_bound:(int * int) list ->
  ?index:Gql_data.Index.t ->
  ?domains:int ->
  Gql_data.Graph.t -> Ast.rule -> compiled_query -> int array list

val stats_lines : unit -> string

(** Run a program to fixpoint; returns statistics.

    [data] is mutated in place unless [copy_on_write] is set.  Then the
    fixpoint only reads [data] — which may be shared with concurrent
    readers — until the first construction must write; it then takes an
    order-preserving {!Graph.copy} (same node ids, same adjacency order,
    so every later enumeration is unchanged) and seeds, matches and
    constructs on the copy, which is discarded on return.  A program
    whose green parts already exist (a pure goal, or a saturated
    database) never copies.

    [use_index] (default on) uses a frozen index for the *unseeded*
    matching rounds (round 1, naive strategy, regex rules); seeded delta
    completion already tracks the delta and would pay a rebuild per
    round for nothing.  [index], when given, is trusted as an exact
    index of [data] as passed in: round 1 and the rules whose query
    footprint is disjoint from everything the program can construct
    ({!stale_index_ok}) run on it instead of on a fresh build.  Other
    unseeded rounds refresh an {!Index.cache}, so consecutive rules in a
    round share one build; the cache's physical-equality check rebuilds
    once the graph has grown or been copied.

    [domains] parallelises the matching side of each round — the
    unseeded searches and the completion of the previous round's delta
    seeds.  Graph mutation ([apply_construction]), Skolem-table updates
    and the per-rule dedup stay strictly sequential on the calling
    domain, so generation stamps and fixpoint results are identical to
    a sequential run.

    Every round and every construction checks {!Gql_graph.Deadline}; a
    run past its deadline raises [Deadline.Exceeded].  Under
    [copy_on_write] that discards only the private copy; an in-place
    run leaves [data] with the constructions made so far. *)
val run :
  ?strategy:[> `Naive | `Semi_naive ] ->
  ?use_index:bool ->
  ?max_rounds:int ->
  ?domains:int ->
  ?index:Gql_data.Index.t ->
  ?copy_on_write:bool -> Gql_data.Graph.t -> Ast.program -> stats

(** Evaluate a goal (pure query rule): return its embeddings without
    touching the database.  Ill-formed rules raise {!Invalid_query}. *)
val goal :
  ?index:Gql_data.Index.t ->
  ?domains:int -> Gql_data.Graph.t -> Ast.rule -> int array list
