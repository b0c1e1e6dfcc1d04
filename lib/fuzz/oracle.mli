(** The seven differential oracles.

    Each oracle evaluates the same question along two redundant paths
    that share as little code as possible and demands byte-identical
    answers:

    - {!scan_vs_index}: embedding search with scan candidates vs. the
      frozen index provider (same embeddings, same order);
    - {!digraph_vs_csr}: regular-path reachability over the mutable
      [Digraph] vs. the frozen [Csr] view (both sorted), forward and
      reverse, the reverse searches against the transposed forward
      relation;
    - {!engine_vs_algebra}: the direct XML-GL matcher vs. the algebra
      planner/executor, under the fail-first join order and under a
      random order drawn from the case seed (compared as sorted binding
      sets — plan order is not part of the contract);
    - {!direct_vs_served}: in-process evaluation vs. a [gql serve]
      round-trip and an in-process server without a result cache, each
      first under a deadline of a few us to 1 ms (the same answer or a
      cancellation), then unbounded on the same snapshot and cached;
    - {!seq_vs_par}: 1-domain vs. N-domain evaluation — bindings, goal
      embeddings, fixpoint statistics and the derived graph must all be
      byte-identical (the determinism guarantee of [Gql_graph.Par]);
    - {!match_vs_algebra}: the textual [MATCH] front-end — parse→pp→parse
      identity, then the canonical result body along the in-process
      routes (direct matcher scan/indexed, algebra fail-first/random
      order), each also against {!reference_body}, and through a
      served round-trip, cold and cached;
    - {!loaded_vs_frozen}: a freshly frozen index vs. the same index
      after a {!Gql_data.Store} save/load round-trip — every engine
      must answer byte-identically on the loaded flat planes, and the
      lazily thawed graph must fingerprint the same.

    Any disagreement — including one side raising where the other
    answers — is a {!Fail}; uncaught exceptions are converted to
    failures by the driver.  Every oracle takes plain strings so the
    shrinker can re-run it on candidate inputs. *)

type name =
  | Scan_vs_index
  | Digraph_vs_csr
  | Engine_vs_algebra
  | Direct_vs_served
  | Seq_vs_par
  | Match_vs_algebra
  | Loaded_vs_frozen

val all : name list

val to_string : name -> string

val of_string : string -> name option

type verdict = Pass | Fail of string

val scan_vs_index : xml:string -> source:string -> verdict

val digraph_vs_csr : graph_seed:int -> regex_src:string -> verdict

(** The canonical MATCH body written the plain way: every binding
    rendered to its tab-joined line, the lines sorted with
    [String.compare] (duplicates kept), the header first, every line
    newline-terminated.  The reference that {!Gql_match.Eval.render}'s
    memoised cells and rank sort must reproduce byte for byte. *)
val reference_body :
  Gql_data.Graph.t -> Gql_match.Compile.t -> int array list -> string

(** The join-order reference of the algebra routes:
    {!Gql_algebra.Planner.build_in_order} under a permutation of the
    pattern's nodes drawn from the case seed, so a replay of the case
    plans the same order again. *)
val shuffled_planner :
  seed:int ->
  Gql_data.Graph.t -> Gql_algebra.Planner.job -> Gql_algebra.Plan.t

val engine_vs_algebra : seed:int -> xml:string -> source:string -> verdict

type transport = Gql_server.Protocol.request -> Gql_server.Protocol.response
(** One service request; either a socket round-trip or the in-process
    [handle_payload] — the corpus replays use the latter so tier-1
    tests need no sockets. *)

val socket_transport : Gql_server.Client.t -> transport

val inproc_transport : Gql_server.Server.t -> transport

(** Each path first answers under a deadline drawn from [seed] (a few us
    to 1 ms) and then without one; a bounded answer must equal the
    direct one or be a TIMEOUT, and every later answer must equal it, so
    a cancelled evaluation published nothing.  [t] runs it bounded,
    unbounded and from its result cache.  [uncached], an in-process
    server without a result cache, runs it through the direct engines on
    its fresh snapshot ({!bounded_direct}), then as a bounded [RUN] and
    twice unbounded: every WG-Log fixpoint evaluates on the same shared
    snapshot, so one that wrote into it would change a later answer. *)
val direct_vs_served :
  uncached:Gql_server.Server.t ->
  seed:int ->
  transport -> doc_name:string -> xml:string -> source:string -> verdict

val seq_vs_par : xml:string -> source:string -> verdict

(** Three checks on one generated [MATCH] text:

    - printing the parsed query and re-parsing it must give back the
      same AST, and printing again the same text (pp is a retraction);
    - the canonical result body must be byte-identical along the
      in-process routes, which share only the compiled pattern: the
      direct homomorphism matcher with scan candidates, the same with
      the index provider, and the algebra executor under the fail-first
      order, under a random order drawn from [seed], and without the
      index (or all must reject with the same message);
    - with a transport, the same body must come back from a served
      round-trip, cold and cached ([Rcache] on).

    Routes are compared as rendered text, not embeddings, because the
    rendered body is the public contract of the textual front-end; each
    in-process body must also equal {!reference_body} of its bindings. *)
val match_vs_algebra :
  transport option ->
  seed:int -> doc_name:string -> xml:string -> source:string -> verdict

(** Freeze the document's index, save it through {!Gql_data.Store},
    load the file back, and demand that the loaded database answers
    byte-identically to the frozen original:

    - [MATCH] sources run all six routes (homomorphism scan/indexed,
      algebra greedy/fixed/cost/no-index) on both databases — the scan
      routes force the lazy [Digraph] thaw, the indexed routes exercise
      the flat postings planes;
    - XML-GL programs compare rendered result documents;
    - WG-Log programs run the fixpoint on a fork of each graph and
      compare the statistics and the full derived-graph fingerprint;
      the served copy-on-write route over the loaded graph and index
      must then match the loaded fork's statistics and leave the
      loaded graph's node and edge counts unchanged.

    A save or load that raises is a failure in itself — the generator
    only produces documents the store must accept. *)
val loaded_vs_frozen : seed:int -> xml:string -> source:string -> verdict
