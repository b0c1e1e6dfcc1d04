(** The operator cost formulas behind EXPLAIN's [rows=… cost=…]
    columns.

    Every plan operator gets a formula over the planner's cardinality
    estimates; the unit is roughly "nanoseconds on the bench host".  The
    formulas annotate plans only: join order is chosen by the planner's
    fail-first rule on candidate counts, never by these costs.

    Inputs, in the order the planner can obtain them:

    - posting cardinalities — [Iset.length] of the index provider's
      candidate sets, refined by full scans when no provider answers;
    - per-symbol edge fan-out — sampled from the provider's exact navs
      (a nav's posting set *is* the symbol-partitioned adjacency built
      from the CSR planes, so a handful of [Iset.length] probes gives
      the mean out-degree of that edge symbol), falling back to the
      graph's average degree (edges / nodes — the CSR degree summary);
    - regex-path reachability caps — a path edge with no sampled nav is
      charged [avg_degree * path_hops] reachable nodes, clamped to the
      node count.

    Formulas (R = input rows, f = fan-out, s = selectivity):

    - [Scan]: rows = |candidates|; cost = c_scan_indexed * rows with a
      posting set, c_scan_full * |nodes| for a whole-graph scan.
    - [Expand]: enumerates R*f neighbours, keeps R*f*s where s is the
      destination predicate's selectivity (|cand dst| / |nodes|);
      cost += c_expand_{direct,path} * R * f.
    - [Edge_check]: rows *= check_selectivity;
      cost += c_check_{direct,path} * R.
    - [Filter]: rows *= filter_selectivity; cost += c_filter * R.
    - [Cross]: rows = R_l * R_r; cost += c_cross * R_l * R_r. *)

val scan : indexed:bool -> n_nodes:int -> card:int -> Plan.est

val expand :
  path:bool ->
  input:Plan.est ->
  fanout:float -> dst_sel:float -> Plan.est

val edge_check :
  path:bool -> input:Plan.est -> Plan.est

val filter : input:Plan.est -> Plan.est

val cross :
  left:Plan.est ->
  right:Plan.est -> Plan.est

(** Reachability cap for a regular-path edge whose fan-out cannot be
    sampled: how many nodes a path step is charged with reaching.
    [depth_bound] is the compiled automaton's longest accepted word when
    the language is finite ([Gql_graph.Regpath.depth_bound]): a bounded
    expression like [a b?] reaches at most [avg_degree ^ depth] nodes,
    which is far below the starred-expression cap [avg_degree *
    path_hops] that the old sampled estimate charged indiscriminately. *)
val path_fanout :
  n_nodes:int -> avg_degree:float -> depth_bound:int option -> float
