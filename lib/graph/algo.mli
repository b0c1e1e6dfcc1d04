(** Classical graph algorithms over {!Digraph}.

    Everything here is payload-agnostic; predicates and label filters are
    passed in.  Complexity notes are in each doc comment because these
    run inside the pattern matchers' inner loops. *)

(** Topological sort; [None] if the graph has a cycle.  O(V + E). *)
val topological_sort : ('a, 'b) Digraph.t -> int list option

val is_acyclic : ('a, 'b) Digraph.t -> bool

(** Strongly connected components (Tarjan), iterative.  Returns components
    in reverse topological order of the condensation.  O(V + E).  Only
    tests call it so far; it is kept for stratified WG-Log, which orders
    rule strata by the condensation of the label dependency graph. *)
val scc : ('a, 'b) Digraph.t -> int list list

