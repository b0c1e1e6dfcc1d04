(** Clause-internal shrink candidates for the fuzzer.

    The line-dropping shrinker in {!Gql_fuzz.Shrink} already removes
    whole clauses; this module proposes the next granularity down for a
    still-failing [MATCH] repro: drop the last hop of a chain, drop one
    [WHERE] conjunct, drop one [RETURN] column (keeping at least one).
    Candidates are printed back through {!Pp} and filtered to those
    that still compile, so the shrinker never wastes oracle runs on
    queries that fail for a new, boring reason (e.g. an orphaned
    variable). *)

(** Shrink candidates for a [MATCH] source text, largest reduction
    first; empty if the source does not parse. *)
val candidates : string -> string list
