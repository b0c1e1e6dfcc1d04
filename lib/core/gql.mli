(** The public facade: everything a downstream user needs in one module.

    {[
      let db = Gql.load_xml_string xml in
      let result = Gql.run_xmlgl_text db {|xmlgl ... |} in
      print_string (Gql.to_xml_string result)
    ]}

    A {!db} couples the semi-structured data graph (what the visual
    languages query) with the original document and a lazily built XPath
    index (the navigational baseline), so the same loaded data serves
    every engine in the comparison. *)

type db = {
  graph : Gql_data.Graph.t;  (** the data graph both visual languages query *)
  document : Gql_xml.Tree.doc option;  (** original document, if loaded from XML *)
  dtd : Gql_dtd.Ast.t option;  (** DTD, external or from the DOCTYPE *)
  xpath_index : Gql_xpath.Index.t Lazy.t;
      (** flattened index for the navigational baseline; forcing it on a
          pure graph database raises {!Error} *)
  gindex : Gql_data.Index.cache;
      (** frozen graph index shared by every engine; rebuilt on demand
          when the graph has grown (e.g. after a WG-Log run) *)
}

exception Error of string
(** Every facade failure (parse errors, missing document forms, ...)
    surfaces as [Error message]. *)

(** {1 Loading} *)

val of_document : ?dtd:Gql_dtd.Ast.t -> Gql_xml.Tree.doc -> db
(** Encode a parsed document.  Without [dtd], the DOCTYPE internal subset
    (if any) provides ID/IDREF typing for reference resolution. *)

val load_xml_string : ?dtd:Gql_dtd.Ast.t -> string -> db
(** Parse and encode XML text.  @raise Error on malformed input. *)

val load_xml_file : ?dtd:Gql_dtd.Ast.t -> string -> db

val of_graph : Gql_data.Graph.t -> db
(** Wrap an entity database that never was XML (e.g. the WG-Log
    restaurant base).  XPath is unavailable on such databases. *)

val of_snapshot : Gql_data.Graph.t -> Gql_data.Index.t -> db
(** Wrap a loaded snapshot pair ({!Gql_data.Store.load}) with the index
    cache pre-filled, so the first query runs on the loaded flat planes
    instead of re-freezing.  XPath is unavailable. *)

val load_snapshot_file : string -> db
(** Load a snapshot file saved with [gql snapshot save].
    @raise Gql_data.Store.Invalid_snapshot on corrupt, truncated or
    wrong-version files. *)

val index : db -> Gql_data.Index.t
(** The frozen {!Gql_data.Index} over [db.graph], built on first use and
    cached until the graph grows. *)

val language_of_source : string -> [ `Wglog | `Xmlgl | `Match | `Unknown ]
(** Which front-end a query source selects: the first word of its first
    non-empty, non-comment ([#]) line, compared case-insensitively and
    as an exact word — so [WGLOG] selects WG-Log but [wglogx] selects
    nothing, and a WG-Log program mentioning "MATCH" in a label is not
    misclassified.  Shared by the CLI and the query service. *)

(** {1 XML-GL} *)

val parse_xmlgl : string -> Gql_xmlgl.Ast.program
(** Parse the textual syntax (see [lib/lang/xmlgl_text.ml] for the
    grammar).  @raise Error with position information on bad input. *)

val run_xmlgl : ?domains:int -> db -> Gql_xmlgl.Ast.program -> Gql_xml.Tree.element
(** Evaluate a program: every rule's matches are constructed and the
    results collected under the program's result root.  [domains] fans
    the embedding search out over OCaml domains with byte-identical
    results (default {!Gql_graph.Par.default_domains}). *)

val run_xmlgl_text : ?domains:int -> db -> string -> Gql_xml.Tree.element

val xmlgl_bindings :
  db -> Gql_xmlgl.Ast.program -> Gql_xmlgl.Matching.binding list
(** Bindings of the first rule's query part (inspection / testing). *)

val explain_xmlgl : db -> Gql_xmlgl.Ast.program -> string
(** EXPLAIN: the physical plan the algebra executes for the first rule
    (fail-first join order), annotated with estimated rows and cost. *)

(** {1 WG-Log} *)

val parse_wglog : ?schema:Gql_wglog.Schema.t -> string -> Gql_wglog.Ast.program

val run_wglog :
  ?strategy:[ `Naive | `Semi_naive ] ->
  ?domains:int ->
  db ->
  Gql_wglog.Ast.program ->
  Gql_wglog.Eval.stats
(** Run a program to its deductive fixpoint.  Mutates [db.graph], as the
    semantics prescribe; idempotent across runs.  Round 1 matches on the
    database's cached index (a loaded snapshot's own), so it is not
    rebuilt.  [domains] parallelises the matching side of each round;
    construction stays sequential. *)

val run_wglog_text :
  ?schema:Gql_wglog.Schema.t ->
  ?strategy:[ `Naive | `Semi_naive ] ->
  ?domains:int ->
  db ->
  string ->
  Gql_wglog.Eval.stats

val wglog_goal : db -> Gql_wglog.Ast.rule -> int array list
(** Evaluate a pure query rule; returns its embeddings without deriving
    anything. *)

val explain_wglog : db -> Gql_wglog.Ast.program -> string
(** EXPLAIN for the first rule's query part via the algebra route,
    annotated with estimated rows and cost.  The fixpoint evaluator itself
    stays non-algebraic; this shows the join order of one rule. *)

(** {1 MATCH — the textual GPML-style front-end} *)

val parse_match : string -> Gql_match.Ast.query
(** Parse a textual [MATCH ... RETURN ...] query (see [lib/match] for
    the grammar).  @raise Error with line/column positions on bad
    input. *)

val run_match : ?domains:int -> db -> Gql_match.Ast.query -> string * int
(** Evaluate through the algebra (fail-first plan, index provider): returns
    the canonical result body — header line plus sorted binding rows,
    tab-separated — and the row count.  @raise Error on compile errors
    (unknown variables etc.). *)

val run_match_text : ?domains:int -> db -> string -> string * int

val match_bindings : db -> Gql_match.Ast.query -> int array list
(** Raw embeddings via the direct matcher (inspection / testing). *)

val explain_match : db -> Gql_match.Ast.query -> string
(** EXPLAIN: the physical plan the algebra would execute, annotated
    with estimated rows and cost. *)

(** {1 The navigational baseline} *)

val xpath_select : db -> string -> Gql_xml.Tree.node list
(** Evaluate an XPath expression to a node list, materialised as trees.
    @raise Error when the database has no document form. *)

val xpath_value : db -> string -> string
(** Evaluate to a scalar (strings/numbers/booleans printed; node-sets
    summarised). *)

(** {1 Schemas} *)

val validate_dtd : db -> Gql_dtd.Validate.violation list
(** @raise Error when the database carries no DTD or no document. *)

val validate_xmlgl_schema :
  db -> Gql_xmlgl.Schema.t -> Gql_xmlgl.Schema.violation list

(** {1 Rendering} *)

val to_xml_string : Gql_xml.Tree.element -> string
(** Pretty-printed XML. *)

val rule_diagram_xmlgl :
  ?title:string -> Gql_xmlgl.Ast.rule -> Gql_visual.Diagram.t
(** The rule as the paper draws it: red query part, green construction
    part, dashed binding lines. *)

val rule_diagram_wglog :
  ?title:string -> Gql_wglog.Ast.rule -> Gql_visual.Diagram.t

val save_svg : string -> Gql_visual.Diagram.t -> unit
(** Lay out (layered) and write a standalone SVG file. *)

val render_ascii : Gql_visual.Diagram.t -> string
(** Terminal rendering of a diagram. *)

val data_diagram : ?max_nodes:int -> db -> Gql_visual.Diagram.t
(** A (truncated) picture of the database itself. *)

(** {1 Introspection} *)

val stats : db -> int * int
(** (nodes, edges) of the data graph. *)
