(** Greedy minimization of a failing (document, query) pair.

    The shrinker never sees the oracle: it is handed a [still_fails]
    predicate (re-run the failing oracle on candidate inputs) and a
    [parses] predicate (candidate queries must stay syntactically
    valid, or the repro would demonstrate a parse error instead of the
    original disagreement).  Both phases are greedy fixpoints:

    - documents shrink by deleting one element subtree at a time,
      largest first, so one accepted deletion removes as much as
      possible;
    - queries shrink by dropping one line of the program body at a
      time (the concrete syntaxes are line-oriented: one box, circle,
      node, edge or clause per line); a [MATCH] source additionally
      shrinks *within* clauses through {!Gql_match.Reduce.candidates} —
      dropping a trailing hop, a WHERE conjunct or a RETURN column.

    Alternating doc/query rounds run until neither side improves. *)

(** Minimize both artifacts of a failing case.  [xml] may be [""] (the
    graph oracle has no document); the query phase likewise accepts any
    string the [parses] predicate owns — a program or a label regex. *)
val minimize :
  parses:(string -> bool) ->
  still_fails:(xml:string -> source:string -> bool) ->
  xml:string -> source:string -> string * string
