(** The query service: frozen snapshots behind a socket.

    One [t] owns the four shared structures — document {!Registry},
    prepared-{!Qcache}, result-{!Rcache} and {!Metrics} — plus a
    {!Pool} of worker domains.  Listeners (TCP and/or Unix-domain)
    accept in a lightweight thread and hand each connection to the
    pool, so up to [workers] connections evaluate in parallel over the
    same immutable snapshots.  A WG-Log [RUN] reads its snapshot too and
    writes only to a private copy taken at its first construction (see
    {!Registry}).

    Request handling is a pure [payload -> payload] function
    ({!handle_payload}), which is also the in-process entry point the
    tests and benchmarks drive without sockets.

    Deadlines: a [RUN] may carry [deadline=MS] (or inherit the server
    default), measured from the request's arrival.  A request already
    overdue when it reaches the evaluator answers [TIMEOUT] without
    evaluating.  Otherwise the evaluation runs under the deadline
    ({!Gql_graph.Deadline}): the engines poll it in their loops — plan
    operators, path searches, backtracking steps, fixpoint rounds and
    constructions, row rendering, on every domain the request fans out
    to — and an overdue evaluation stops within a few milliseconds,
    answers [TIMEOUT] and frees its worker.  A cancelled evaluation
    publishes nothing: no result-, plan- or path-memo entry, and the
    snapshot is untouched.  A result that completes just past its
    deadline also answers [TIMEOUT], but it is complete, so it is
    cached and a retry usually hits. *)

type config = {
  workers : int option;  (** worker domains; default {!Pool.default_size} *)
  result_cache : int;  (** LRU capacity; [0] disables result caching *)
  query_cache : int;  (** prepared-query capacity *)
  default_deadline_ms : float option;
      (** deadline for a [RUN] that carries none; evaluation is
          cancelled inside the engines once it passes *)
  run_domains : int option;
      (** domains per [RUN] evaluation; [None] (the default) sizes each
          RUN by {!Gql_graph.Par.auto_domains} — a lone request borrows
          the capacity idle pool workers leave unused, while concurrent
          busy workers each hold a budget unit so a client burst
          degrades to one domain per request instead of oversubscribing
          the machine *)
}

val default_config : config

type t = {
  config : config;
  registry : Registry.t;
  qcache : Qcache.t;
  rcache : Rcache.t option;
  pcache : Gql_match.Eval.prepared Pcache.t;
      (** planned MATCH queries, keyed (doc, snapshot version, query
          hash) — planning (estimate scans, join enumeration) runs once
          per snapshot even when the result cache misses or is off *)
  metrics : Metrics.t;
  pool : Pool.t;
  mutex : Mutex.t;  (** listener list *)
  mutable listeners : Unix.file_descr list;
}

val create : ?config:config -> unit -> t

val registry : t -> Registry.t

val workers : t -> int

(** The exact [RUN] body of a WG-Log fixpoint — kept in one place so the
    server, the CLI and the byte-identity tests cannot drift apart. *)
val wglog_stats_line : Gql_wglog.Eval.stats -> string

val cache_key :
  Registry.snapshot ->
  Qcache.entry -> string -> Rcache.key

(** The full service function: request payload in, response payload out.
    Everything — parse errors included — becomes a framed response;
    metrics are recorded here so in-process callers count too. *)
val handle_payload : t -> string -> string

type listener = { fd : Unix.file_descr; thread : Thread.t }

(** Bind, listen and accept in a background thread; each connection is
    handled on a pool domain.  [ADDR_UNIX path] unlinks a stale socket
    file first. *)
val listen : t -> Unix.sockaddr -> listener

val wait : listener -> unit

(** Close every listener and join the worker domains (in-flight
    connections finish first). *)
val stop : t -> unit
