(** Regular path queries — flat product-automaton engine.

    GraphLog introduced dashed edges carrying a regular expression over
    edge labels: such an edge matches any *path* in the database whose
    label word belongs to the expression's language (e.g. [index+] in the
    paper's root-link example).  WG-Log inherits the construct, XML-GL's
    deep containment is the special case [child+], and the textual MATCH
    front-end exposes the full surface — so this module is the
    navigational workhorse of all three engines.

    Implementation: the regex is compiled once into a dense int-indexed
    automaton — its Glushkov (position) automaton, ε-free by
    construction, flattened into offset/target arrays.  State 0 is the
    start and state [p] means "position [p] was just read", so a
    transition into [p] tests leaf [p].  Evaluation is then a plain BFS
    over single [(node, state)] pairs: the product space is
    [|V| * |Q|], visited pairs live in a flat [Bytes] bitset, the
    frontier is an int array whose retained prefix doubles as the
    touched list (so clearing costs O(visited), not O(|V|*|Q|)), and no
    list cell is allocated on the hot path.  Scratch buffers are
    domain-local and reused across searches; [connects] exits on the
    first accepting pair; a reverse automaton built from the same
    positions answers "which sources reach [n]" without scanning the
    graph.

    Each symbol leaf carries both a predicate closure (for mutable
    [Digraph]s and generic frozen views) and a classification
    ([Lany]/[Lname]/[Lopaque]) that [Gql_data.Index] resolves against
    the snapshot's interned symbols, turning label tests on the frozen
    planes into single integer compares. *)

type stats = {
  compiles : int;  (** regexes compiled to automata *)
  specialisations : int;  (** per-snapshot symbol resolutions *)
  searches : int;  (** product-BFS runs (any direction, any backend) *)
  memo_hits : int;  (** snapshot path-memo hits (bumped by the index) *)
  memo_misses : int;
  frontier_peak : int;
      (** the most (node,state) pairs one search pushed, over the searches
          since the previous {!stats} call *)
  scratch_reuses : int;  (** searches that reused a warm domain-local scratch *)
}

(** The counters now.  Reading takes the frontier peak: each call
    reports the peak of the searches since the call before it, so a
    [before]/[after] pair, or two METRICS requests, bracket a window. *)
val stats : unit -> stats

val stats_diff : before:stats -> stats -> stats

val stats_lines : unit -> string

val note_memo_hit : unit -> unit

val note_memo_miss : unit -> unit

(** How a symbol leaf tests an edge once the snapshot's interned symbols
    are known.  [Lany] admits every edge the plane admits; [Lname]
    compares against one interned name; [Lopaque] always falls back to
    the leaf's predicate closure. *)
type lclass = Lany | Lname of string | Lopaque

type half = {
  h_off : int array;  (** length [n_states + 1] *)
  h_next : int array;
  h_final : bool array;  (** accepting states *)
}

type 'e t = {
  uid : int;  (** process-unique; keys per-snapshot spec/memo caches *)
  plane_hint : int;  (** which frozen edge plane applies; 0 = none *)
  n_states : int;  (** positions + 1 *)
  is_nullable : bool;  (** ε ∈ L: the start node is always reachable *)
  bound : int option;  (** longest accepted word when the language is finite *)
  preds : ('e -> bool) array;  (** per-leaf predicate closures *)
  classes : lclass array;  (** per-leaf classification *)
  opaque_spec : int array;  (** all-[-2] spec: force the predicate lane *)
  fwd : half;
  rev : half;  (** same language reversed; answers backward navigation *)
}

val uid : 'a t -> int

val plane_hint : 'a t -> int

val depth_bound : 'a t -> int option

val compile_classified :
  plane_hint:int ->
  classify:('a -> lclass) ->
  ('a -> 'e -> bool) -> 'a Gql_regex.Syntax.t -> 'e t

val compile : ('a -> 'e -> bool) -> 'a Gql_regex.Syntax.t -> 'e t

(** Per-leaf resolved symbol test against one snapshot's interner:
    [>= 0] interned id to compare, [-1] any plane-admitted edge,
    [-2] call the predicate closure, [-3] a name unseen at freeze time
    (matches nothing — symbols interned after the snapshot cannot name
    any frozen edge). *)
type spec = int array

val specialise : 'e t -> intern:(string -> int) -> spec

(** All nodes reachable from [start] along a path whose labels match the
    expression, ascending.  The empty path counts when the expression is
    nullable (so [start] itself may be returned). *)
val reachable_set :
  'e t ->
  ('n, 'e) Digraph.t -> Digraph.node -> Iset.t

val reachable :
  'a t ->
  ('b, 'a) Digraph.t ->
  Digraph.node -> Digraph.node list

(** All sources from which a matching path leads *to* [start] (the
    reverse automaton walked over predecessor edges), ascending. *)
val reachable_rev_set :
  'e t ->
  ('n, 'e) Digraph.t -> Digraph.node -> Iset.t

(** Same searches over a frozen CSR view, testing each edge with the
    leaf predicates. *)
val reachable_frozen_set :
  'e t ->
  ('n, 'e) Csr.t -> Digraph.node -> Iset.t

val reachable_frozen :
  'a t ->
  ('b, 'a) Csr.t ->
  Digraph.node -> Digraph.node list

val reachable_frozen_rev_set :
  'e t ->
  ('n, 'e) Csr.t -> Digraph.node -> Iset.t

(** Frozen searches over a specialised symbol plane: [plane] assigns
    each edge (in [out_lab]/[in_lab] order) its interned name, or [-1]
    when the lane rejects the edge; label tests become int compares. *)
val reachable_plane :
  'e t ->
  spec ->
  ('n, 'e) Csr.t ->
  plane:int array -> Digraph.node -> Iset.t

val reachable_rev_plane :
  'e t ->
  spec ->
  ('n, 'e) Csr.t ->
  plane:int array -> Digraph.node -> Iset.t

(** Does a matching path lead from [src] to [dst]?  Exits on the first
    accepting [(dst, state)] pair instead of materialising the set. *)
val connects :
  'e t -> ('n, 'e) Digraph.t -> src:int -> dst:int -> bool

(** [reachable_batch rp g srcs] = per-source reachable sets, resolved in
    one scratch sweep. *)
val reachable_batch :
  'e t -> ('n, 'e) Digraph.t -> int array -> Iset.t array

val reachable_frozen_batch :
  'e t -> ('n, 'e) Csr.t -> int array -> Iset.t array

val reachable_rev_batch :
  'e t -> ('n, 'e) Digraph.t -> int array -> Iset.t array

(** Reference engine: the subset-construction BFS over (node, position
    set) pairs.  The qcheck equivalence properties compare {!reachable}
    against it on the mutable graph; E16 times and checks the frozen
    variant below. *)
val reachable_subset :
  'e t ->
  ('n, 'e) Digraph.t ->
  Digraph.node -> Digraph.node list

val reachable_subset_frozen :
  'e t ->
  ('n, 'e) Csr.t ->
  Digraph.node -> Digraph.node list

(** Reference implementation for property tests: enumerate all paths up
    to [max_len] hops, taking the Brzozowski derivative of the regex
    along each, independent of any automaton.  Exponential; small graphs
    only. *)
val reachable_naive :
  ('a -> 'e -> bool) ->
  'a Gql_regex.Syntax.t ->
  ('n, 'e) Digraph.t ->
  Digraph.node -> max_len:int -> Digraph.node list
