(** Graphviz DOT export — the debugging view of every graph in the
    system (data graphs, query graphs, schema graphs).  The presentation
    view is [Gql_visual]; DOT is for developers. *)

(** Render with user-supplied labellers.  [node_attrs]/[edge_attrs] may
    add extra DOT attributes (e.g. [shape=box], [style=dashed]). *)
val to_string :
  ?name:string ->
  ?node_attrs:(int -> 'a -> (string * string) list) ->
  ?edge_attrs:('b -> (string * string) list) ->
  node_label:(int -> 'a -> string) ->
  edge_label:('b -> string) -> ('a, 'b) Digraph.t -> string
