(** The expressiveness comparison (experiment E6).

    The paper's core contribution is a *qualitative* comparison of
    XML-GL and WG-Log.  This module makes it mechanical: twelve feature
    classes, a support matrix per language (plus the XPath baseline),
    and static classifiers that report which classes a given query
    actually uses — so the matrix can be cross-checked against the
    witness queries in [Gql_workload.Queries]. *)

type feature =
  | Selection  (** match by element name / entity type and constants *)
  | Projection  (** keep only some children in the result *)
  | Value_join  (** equality of values across branches *)
  | Regex_match  (** regular expressions on textual content *)
  | Negation  (** absent children / crossed edges *)
  | Deep_paths  (** descendants at any depth / regular path edges *)
  | Aggregation  (** collect-all (triangles), count/sum/min/max/avg *)
  | Grouping  (** group-by (list icons) *)
  | Restructuring  (** build new element structure *)
  | Ordered_content  (** order-sensitive matching *)
  | Schema_declaration  (** can state schemas in the same formalism *)
  | Recursion  (** derived relations feeding further derivations *)

val all_features : feature list
(** Every feature class, in table order: the rows the paper's comparison
    must cover, which the tests check {!matrix} against. *)

type support = Native | Encodable | Unsupported

val matrix : (feature * support * support * support) list
(** (feature, XML-GL, WG-Log, XPath 1.0) — the paper's comparison as
    verified by this implementation; every [Native] entry for the two
    visual languages has a witness query in the suite. *)

val of_xmlgl : Gql_xmlgl.Ast.program -> feature list
(** Feature classes an XML-GL program uses, sorted and deduplicated. *)

val of_wglog : Gql_wglog.Ast.program -> feature list

val matrix_to_string : unit -> string
(** The matrix as the aligned text table printed by [gql matrix] and the
    E6 bench. *)
