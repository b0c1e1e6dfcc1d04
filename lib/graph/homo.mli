(** Generic pattern matching: find homomorphic embeddings of a small
    pattern graph into a large data graph.

    Both visual languages reduce their matching phase to this search:
    pattern nodes constrain the data node they may bind to (a predicate),
    pattern edges constrain pairs of bindings — either a direct edge whose
    label satisfies a predicate, or a regular path ({!Regpath}).  Shared
    pattern nodes *are* the joins of the paper ("they share the same
    nodes, making variables obsolete").

    The search is backtracking with the standard optimisations that keep
    the paper's example queries interactive on 100k-node databases:
    - once part of the pattern is bound, candidates for a node connected
      to the bound region come from *adjacency* of the bound neighbours —
      the sorted sets contributed by every incident bound edge are
      intersected smallest-first ({!Iset.inter_many}), never scanned
      per-element;
    - global candidate sets (needed to start each connected component)
      are computed lazily and memoised as {!Iset.t}, so their size is
      O(1) for the fail-first scorer;
    - the next node to bind is chosen fail-first: connected nodes are
      scored by their bound neighbour's degree, unconnected ones by their
      global candidate count.

    [iter_embeddings ~pre_bound] seeds the search with fixed bindings —
    the semi-naive WG-Log evaluator pins a pattern edge to a freshly
    derived data edge and completes the embedding around it. *)

type ('n, 'e) edge_constraint =
  | Direct of ('e -> bool)  (** one edge whose label satisfies the predicate *)
  | Path of 'e Regpath.t  (** a regular path *)
  | Negated of ('e -> bool)

type ('n, 'e) pattern = {
  p_nodes : (Digraph.node -> 'n -> bool) array;
      (** predicate for each pattern node; receives the data node id so
          callers can consult surrounding structure (e.g. string-values) *)
  p_edges : (int * ('n, 'e) edge_constraint * int) list;
}

type embedding = int array
(** [emb.(p)] = data node bound to pattern node [p]. *)

(** Per-pattern-edge index navigation.  [nav_out n] enumerates candidate
    endpoints reached from [n] along the edge (and [nav_in] the reverse
    direction) as a sorted set; both may return a *superset* of the
    truly matching neighbours — the search re-checks node predicates and
    edge constraints on every binding, so supersets only cost time,
    never correctness.  [nav_exact] declares that [nav_out]/[nav_in] are
    *not* supersets (every enumerated neighbour satisfies the edge
    constraint) — executors that skip the re-check (algebra [Expand])
    may only navigate exact navs.  [nav_links src dst], when present,
    must always be exact: it replaces the adjacency scan that decides
    whether the constraint holds between two bound nodes. *)
type nav = {
  nav_out : (Digraph.node -> Iset.t) option;
  nav_in : (Digraph.node -> Iset.t) option;
  nav_links : (Digraph.node -> Digraph.node -> bool) option;
  nav_exact : bool;
}

(** A pluggable candidate provider: how an index-backed caller replaces
    the matcher's linear scans.

    - [prov_candidates p] returns the global candidates for pattern node
      [p] (a sorted superset is fine — the node predicate is re-applied);
      [None] falls back to the whole-graph scan.
    - [prov_degree], when present, must be O(1) (a frozen {!Csr} view);
      it feeds the fail-first scorer.
    - [prov_nav i] attaches navigation to the [i]-th element of
      [p_edges] (list order). *)
type ('n, 'e) provider = {
  prov_candidates : int -> Iset.t option;
  prov_degree : (Digraph.node -> int) option;
  prov_nav : int -> nav option;
}

(** Enumerate embeddings, calling [emit] on each.  [emit] may raise to
    stop early (see {!exists}).  [pre_bound] fixes pattern nodes to data
    nodes before the search starts (duplicates must agree); the fixed
    nodes are checked against their predicates and edge constraints.
    [provider] supplies index-backed candidates; with the default, every
    global candidate set is a graph scan.  Indexed and scan-based
    searches enumerate the same embeddings in the same order (provider
    candidate sets are sorted, as scans are).

    [domains] > 1 partitions the first choice point's candidate set over
    that many domains ({!Par.map_chunks}); each chunk is a zero-copy
    {!Iset.sub} slice, the enumeration order is byte-identical to the
    sequential one, and [emit] is always called sequentially from the
    calling domain.  Compiled pattern state (edge array, navs,
    adjacency, the probe's memoised global candidate sets) is built once
    and shared read-only across chunks; each chunk's instance carries
    only its own bindings and emit buffer.  The fan-out is work-gated:
    the job's cost estimate — first-choice-point candidates x pattern
    size — must clear {!Par.cutoff} or the search stays sequential.  The
    default for [domains] comes from {!Par.default_domains}
    ([GQL_DOMAINS] / [Par.set_default]).  The graph must not be mutated
    during a parallel search. *)
val iter_embeddings :
  ?pre_bound:(int * int) list ->
  ?provider:('n, 'e) provider ->
  ?domains:int ->
  ('n, 'e) pattern ->
  ('n, 'e) Digraph.t -> emit:(embedding -> unit) -> unit

val exists :
  ?pre_bound:(int * int) list ->
  ?provider:('a, 'b) provider ->
  ('a, 'b) pattern -> ('a, 'b) Digraph.t -> bool

