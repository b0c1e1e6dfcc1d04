(** On-disk format for minimized fuzz repros.

    A repro is everything needed to replay one oracle on one input
    with no randomness left: the seed and oracle it came from, the
    (minimized) query source and document, and for the graph oracle
    the side-graph seed.  The format is line-oriented text so repros
    diff cleanly and can be authored by hand:

    {v
    # gql fuzz minimized repro
    seed: 12345
    oracle: direct-vs-served
    detail: cold served ERR: ...
    graph_seed: 0
    --- query
    xmlgl ...
    --- doc
    <a>...</a>
    v}

    Files live in [test/corpus/] and are replayed by
    [test_fuzz_corpus] on every test run, so every bug the fuzzer ever
    minimized stays fixed. *)

type repro = {
  seed : int;
  oracle : string;  (** {!Oracle.to_string} form *)
  detail : string;  (** the failure line at minimization time *)
  graph_seed : int;  (** only meaningful for digraph-vs-csr *)
  source : string;  (** minimized query program (or label regex) *)
  xml : string;  (** minimized document; [""] when the oracle has none *)
}

val render : repro -> string

val write : dir:string -> repro -> string

(** Read back what {!render} wrote.  The corpus replay in the test suite
    is its caller; it stays beside the writer so that one module owns the
    format. *)
val parse : string -> repro

