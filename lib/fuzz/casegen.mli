(** Seed-driven inputs for the differential fuzzer.

    Everything a case contains — the document, one XML-GL and one
    WG-Log program, and the side graph + label regex for the
    regular-path oracle — derives from a single integer seed through
    {!Gql_workload.Prng} (splitmix64).  Same seed, same bytes, on any
    machine: a failure report is just a seed plus an oracle name.

    Programs are generated as ASTs through the [Build] APIs and then
    *printed* to the concrete syntax, so every case also round-trips
    through the textual parsers — the same path a served [RUN] takes.
    The generators only emit rules that pass the static checks; the
    corpus of deliberately ill-formed programs lives in [test/corpus/]
    instead, as minimized repros of real crash paths. *)

type case = {
  seed : int;
  xml : string;  (** the document under test *)
  xmlgl_src : string;  (** a well-formed XML-GL program over it *)
  wglog_src : string;  (** a well-formed WG-Log program over it *)
  graph_seed : int;  (** seed of the labelled digraph of the path oracle *)
  regex_src : string;  (** textual label regex for the path oracle *)
  match_src : string;  (** a well-formed textual MATCH query over [xml] *)
}

val gen_match : Gql_workload.Prng.t -> string

(** The labelled digraph of the regular-path oracle, regenerable from
    its own seed (so a repro needs only [graph_seed], not the edges). *)
val gen_graph : graph_seed:int -> (unit, string) Gql_graph.Digraph.t

val generate : seed:int -> case
