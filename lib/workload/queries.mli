(** The fixed query suite.

    Q1-Q9 are XML-GL programs (textual syntax, parsed at first use);
    Q10-Q12 are the WG-Log rules of the paper's figures.  Where the
    query is expressible navigationally, the XPath equivalent is given
    so benches can race the engines on identical questions.

    Q1/E3  all books, deep copy               (figure XML-GL-simple)
    Q2     selection: titles of books > 40
    Q3/E4  aggregation: persons with address  (figure XML-GL-aggregate)
    Q4     value join: products & their vendors' countries
    Q5     regex selection: vendors /Van.°/
    Q6     negation: persons without address
    Q7     deep edge: last names at any depth
    Q8     ordered containment: title before price
    Q9     grouping: persons per employer     (list icon)
    Q10/E1 WG-Log: rest-list of restaurants offering menus
    Q11/E5 WG-Log: sibling links              (figure GraphLog-simple)
    Q12/E5 WG-Log: root links via index+      (figure GraphLog-root) *)

val q1_src : string

val q1_xpath : string

val q2_src : string

val q2_xpath : string

val q3_src : string

val q3_xpath : string

val q4_src : string

val q4_xpath : string

val q5_src : string

val q5_xpath : string

val q6_src : string

val q6_xpath : string

val q7_src : string

val q7_xpath : string

val q8_src : string

val q8_xpath : string

val q9_src : string

val q10_src : string

val q11_src : string

val q12_src : string

val q13_src : string

val q14_src : string

val q15_src : string

type entry = {
  name : string;
  description : string;
  kind : [ `Xmlgl of Gql_xmlgl.Ast.program Lazy.t | `Wglog of Gql_wglog.Ast.program Lazy.t ];
  xpath : string option;
  workload : [ `Bibliography | `Greengrocer | `People | `Restaurants | `Hyperdocs ];
}

val suite : entry list

val m1_src : string

val m2_src : string

val m3_src : string

val m4_src : string

val m5_src : string

(** One request of the serving workload: run [source] against the
    registered document [doc] (under [schema] for WG-Log sources). *)
type server_query = {
  sq_name : string;
  doc : string;
  schema : string option;
  source : string;
}

(** Every suite query that makes sense against a *served* snapshot,
    tagged with the document name the server-side registries use
    (documents are registered under their generator names).  Q10 is the
    WG-Log member: it exercises the server's fork-per-request path. *)
val server_suite : server_query list

