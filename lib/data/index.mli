(** Frozen indexes over a data graph.

    One [build] pass snapshots the graph into a {!Gql_graph.Csr} view,
    interns every node label and edge name into a snapshot-local
    {!Symtab}, and derives the access paths every engine's matcher wants
    instead of whole-graph scans:

    - [by_label]: label symbol -> complex nodes, the entry point for
      typed pattern nodes;
    - [by_number] / [by_string]: normalised atom value -> atom nodes,
      for constant rectangles and value point-lookups (normalisation
      follows [Value.compare_values]: numeric when the value coerces,
      textual otherwise, so ["12"], [12] and [12.0] share a bucket);
    - per-node adjacency partitioned by edge-name symbol ([out_named] /
      [in_named]), by [Attribute] kind and name ([attr_named_sym]), by
      [Child] kind ([children] / [parents]) and by [Ref]/[Rel] kind
      ([ref_succ] / [ref_pred]), so a labelled edge constraint
      enumerates only matching neighbours;
    - [edges_named]: name symbol -> all (src, dst) pairs, for the WG-Log
      evaluator's globally negated edges;
    - a per-node interned label plane on the CSR view
      ([Csr.set_node_syms]), so "is this node labelled X?" is one
      integer compare against a symbol resolved once per query.

    Every map has one representation, the flat planes a {!Store}
    snapshot file holds: a sorted key array, an offset array and one
    pool of postings.  [build] writes them straight from the CSR slices
    with counting sorts, [Store.save] writes the fields as they are and
    [Store.load] validates and blits them back.  Every posting set is
    sorted ascending and duplicate-free, which makes the indexed matcher
    enumerate embeddings in exactly the order of the scan-based one.
    Per-node name-partitioned adjacency is keyed by the single integer
    [node * stride + name_sym], so a lookup is one binary search over
    immediate ints.

    Symbols are snapshot-local: ids from one build must never be
    compared with ids (or used against postings) of another.  The index
    is a snapshot: [refresh] on a {!cache} rebuilds it only when the
    graph has grown (the data graph is append-only; node payloads are
    never mutated after construction). *)

(** Sets laid end to end: set [i] is [pool.(off.(i)) .. pool.(off.(i + 1) - 1)],
    sorted and duplicate-free. *)
type sets = { off : int array; pool : int array }

(** A posting map: the set under [keys.(i)] (keys strictly ascending)
    is set [i] of [sets]. *)
type 'k postings = { keys : 'k array; sets : sets }

type t = {
  data : Graph.t;
  csr : (Graph.node_kind, Graph.edge) Gql_graph.Csr.t;
  version : int * int;  (** (n_nodes, n_edges) at build time *)
  symtab : Symtab.t;
  stride : int;  (** symtab length at build end; adjacency key stride *)
  by_label : int postings;  (** label sym -> complex nodes *)
  by_number : float postings;  (** numeric value, [Float.compare] order *)
  by_string : string postings;  (** textual value, [String.compare] order *)
  all_complex : Gql_graph.Iset.t;
  all_atoms : Gql_graph.Iset.t;
  out_by_name : int postings;  (** node * stride + name sym *)
  in_by_name : int postings;
  attr_out : int postings;
  child_out : sets;  (** set [n]: node [n]'s neighbours *)
  child_in : sets;
  ref_out : sets;
  ref_in : sets;
  edges_by_name : int postings;
      (** name sym -> (src, dst) pairs sorted ascending, interleaved in
          the pool (parallel edges repeat a pair) *)
  (* Regular-path engine state, all lazy and mutex-guarded (the serve
     pool shares one snapshot across worker domains): per-lane edge-sym
     planes aligned with the CSR out/in slices, per-automaton
     specialisations, and the path-result memo.  All of it dies with
     the snapshot, so the existing (n_nodes, n_edges) version scheme
     invalidates it for free. *)
  path_lock : Mutex.t;
  planes : (int, int array * int array) Hashtbl.t;  (** hint -> out, in *)
  path_specs : (int, Gql_graph.Regpath.spec) Hashtbl.t;  (** automaton uid *)
  path_memo : (int * int * int, Gql_graph.Iset.t) Hashtbl.t;  (** uid, dir, node *)
}

val build : Graph.t -> t

(** The snapshot's symbol table (labels and edge names). *)
val symtab : t -> Symtab.t

(** Interned label symbol of node [n]; [-1] for atoms.  One integer
    compare against [label_sym] answers a typed-node test. *)
val node_sym : t -> int -> int

(** The symbol of label/name [s] in this snapshot, or [-1] when nothing
    in the snapshot carries it (so no node/edge can match). *)
val label_sym : t -> string -> int

(** Complex nodes carrying label symbol [sym], sorted. *)
val complex_with_sym : t -> int -> Gql_graph.Iset.t

(** Complex nodes carrying label [l], sorted. *)
val complex_with_label : t -> string -> Gql_graph.Iset.t

(** Complex nodes whose label satisfies [p] — one test per *distinct*
    label, not per node (this is how regex name tests scale). *)
val complex_matching : t -> (string -> bool) -> Gql_graph.Iset.t

(** Atom nodes equal (in the [Value.equal_values] sense) to [v]. *)
val atoms_equal : t -> Value.t -> Gql_graph.Iset.t

val all_complex : t -> Gql_graph.Iset.t

val all_atoms : t -> Gql_graph.Iset.t

val out_named : t -> int -> string -> Gql_graph.Iset.t

val in_named : t -> int -> string -> Gql_graph.Iset.t

val edges_named : t -> string -> (int * int) array

(** Edges named [name], any kind — exactly WG-Log's label semantics, so
    the nav is exact. *)
val nav_name : t -> string -> Gql_graph.Homo.nav

(** [Child]-kind edges, any name.  Exact for unpositioned containment. *)
val nav_child : t -> Gql_graph.Homo.nav

(** [Child]-kind edges used only for candidate enumeration (a superset):
    positioned containment re-checks the ordinal via the constraint. *)
val nav_child_superset : t -> Gql_graph.Homo.nav

(** [Attribute]-kind edges named [name].  Exact on the forward direction
    and the link test; reverse lookups fall back to the scan. *)
val nav_attr : t -> string -> Gql_graph.Homo.nav

(** [Ref]/[Rel]-kind edges, any name — exact. *)
val nav_ref : t -> Gql_graph.Homo.nav

(** [Ref]/[Rel] edges named [name]: name-partitioned supersets for
    enumeration (the name table ignores kind), exact checks deferred. *)
val nav_ref_named : t -> string -> Gql_graph.Homo.nav

(** Edge-plane lane hints for {!Gql_graph.Regpath.compile_classified}: which edges a
    snapshot lane admits before the symbol test even runs.  [plane_name]
    admits every edge (MATCH path semantics), [plane_rel] excludes
    [Attribute] edges (WG-Log arcs), [plane_child] admits only [Child]
    edges (XML-GL deep containment).  Hint [0] means no plane: the
    engine tests edges with the leaf predicates. *)
val plane_name : int

val plane_rel : int

val plane_child : int

(** Regular-path navigation over the frozen view: specialised automaton
    on the snapshot's symbol plane, memoised per (automaton, direction,
    node), with backward navigation answered by the reverse automaton
    instead of a whole-graph scan. *)
val nav_path : t -> Graph.edge Gql_graph.Regpath.t -> Gql_graph.Homo.nav

(** Assemble a provider from per-pattern-node candidate sets and
    per-edge navigation (both indexed by pattern position / [p_edges]
    order). *)
val provider :
  ?navs:Gql_graph.Homo.nav option array ->
  t ->
  candidates:(int -> Gql_graph.Iset.t option) ->
  (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider

type cache = { mutable cached : t option }

val cache : unit -> cache

(** The index for [data], rebuilt only if the graph has grown since the
    cached build (append-only graphs make size a sound version stamp). *)
val refresh : cache -> Graph.t -> t
