(** Diagram builders: from language ASTs and data graphs to {!Diagram}s.

    These produce exactly the pictures in the paper's figures: an XML-GL
    rule as the side-by-side query/construction pair, a WG-Log rule as a
    single graph with red and green parts, and a data graph with boxes
    for complex nodes and circles for atoms. *)

(** An XML-GL rule: query part (red) on the left layers, construction
    part (green) appended; the classic two-pane figure. *)
val of_xmlgl_rule :
  ?title:string -> Gql_xmlgl.Ast.rule -> Diagram.t

(** A WG-Log rule: one graph, thin red query edges, thick green
    construction edges. *)
val of_wglog_rule :
  ?title:string -> Gql_wglog.Ast.rule -> Diagram.t

