let q1_src =
  {|xmlgl
result books
rule
query
  node $b elem BOOK
construct
  node c copy $b deep
  root c
end
|}

let q1_xpath = "//BOOK"

let q2_src =
  {|xmlgl
result expensive-titles
rule
query
  node $b elem BOOK
  node $t elem title
  node $p elem price where self > 40
  edge $b $t
  edge $b $p
construct
  node c copy $t deep
  root c
end
|}

let q2_xpath = "//BOOK[price > 40]/title"

let q3_src =
  {|xmlgl
result RESULT
rule
query
  node $p elem PERSON
  node $a elem FULLADDR
  node $fn elem firstname
  node $ln elem lastname
  edge $p $a
  edge $p $fn
  edge $p $ln
construct
  node person copy $p
  node fn copy $fn deep
  node ln copy $ln deep
  root person
  edge person fn
  edge person ln
end
|}

let q3_xpath = "//PERSON[FULLADDR]"

let q4_src =
  {|xmlgl
result product-origins
rule
query
  node $prod elem product
  node $pv elem vendor
  node $pvname content
  node $v elem vendor
  node $vname elem name
  node $vc elem country
  node $cval content
  edge $prod $pv
  edge $pv $pvname
  edge $v $vname
  edge $vname $pvname
  edge $v $vc
  edge $vc $cval
construct
  node origin new origin per $prod
  node p copy $prod deep
  node c value $cval
  root origin
  edge origin p
  edge origin c
end
|}

(* The value join: $pvname is shared between the product's vendor element
   and the vendors section's name element — the acyclic-graph join of the
   paper.  Navigationally this needs a nested predicate: *)
let q4_xpath = "//product[vendor = //vendors/vendor/name]"

let q5_src =
  {|xmlgl
result van-vendors
rule
query
  node $v elem vendor
  node $n content where self ~ /Van.*/
  edge $v $n
construct
  node c copy $v deep
  root c
end
|}

let q5_xpath = "//vendor[starts-with(., \"Van\")]"

let q6_src =
  {|xmlgl
result homeless
rule
query
  node $p elem PERSON
  node $a elem FULLADDR
  node $ln elem lastname
  edge $p $ln
  absent $p $a
construct
  node c copy $ln deep
  root c
end
|}

let q6_xpath = "//PERSON[not(FULLADDR)]/lastname"

let q7_src =
  {|xmlgl
result all-last-names
rule
query
  node $root elem bib
  node $ln elem last-name
  deep $root $ln
construct
  node c copy $ln deep
  root c
end
|}

let q7_xpath = "/bib//last-name"

let q8_src =
  {|xmlgl
result well-ordered
rule
query
  node $b elem BOOK
  node $t elem title
  node $p elem price
  edge $b $t ordered
  edge $b $p ordered
construct
  node c copy $b
  node t copy $t deep
  node p copy $p deep
  root c
  edge c t
  edge c p
end
|}

let q8_xpath = "//BOOK[title][price][title/following-sibling::price]"

let q9_src =
  {|xmlgl
result by-employer
rule
query
  node $p elem PERSON
  node $e elem employer
  node $ev content
  edge $p $e
  edge $e $ev
construct
  node g group $ev
  node bucket new employer-group
  node key value $ev
  node member copy $p
  root g
  edge g bucket
  edge bucket key attr name
  edge bucket member
end
|}

(* Q10: the WG-Log figure — build a rest-list collecting every
   Restaurant that offers a Menu. *)
let q10_src =
  {|wglog
rule
  node r Restaurant
  node m Menu
  edge r offers m
  cnode L rest-list
  collect L member r
end
|}

(* Q11: GraphLog sibling — two documents indexed by the same document
   become siblings. *)
let q11_src =
  {|wglog
rule
  node i Document
  node a Document
  node b Document
  edge i index a
  edge i index b
  cedge a sibling b
end
|}

(* Q12: GraphLog root — a document with no incoming index reaches others
   via index+; derive root edges.  The "no incoming index" condition is
   expressed with a negated self-loop-free edge from any document. *)
let q12_src =
  {|wglog
rule
  node r Document
  node o Document
  node d Document
  negedge o index r
  pathedge r index+ d
  cedge r root d
end
|}

(* Q13-Q15: pure-goal queries over the million-node parallel-scaling
   fixtures (Gen.wide_graph / deep_graph / skewed_graph).  Each binds
   the rare label first — the fail-first scorer guarantees it — and
   completes per-seed, so all the work sits past the first choice
   point, the shape E13v2 measures. *)
let q13_src =
  {|wglog
rule
  node h Hub
  node i Item
  edge h rel i
end
|}

let q14_src =
  {|wglog
rule
  node h Head
  node t Cell
  pathedge h next+ t
end
|}

let q15_src =
  {|wglog
rule
  node g Group
  node m Member
  edge g member m
end
|}

(* --- parsed forms, memoised ----------------------------------------- *)

let parse_xmlgl = Gql_lang.Xmlgl_text.parse_program
let parse_wglog = Gql_lang.Wglog_text.parse_program

let q1 = lazy (parse_xmlgl q1_src)
let q2 = lazy (parse_xmlgl q2_src)
let q3 = lazy (parse_xmlgl q3_src)
let q4 = lazy (parse_xmlgl q4_src)
let q5 = lazy (parse_xmlgl q5_src)
let q6 = lazy (parse_xmlgl q6_src)
let q7 = lazy (parse_xmlgl q7_src)
let q8 = lazy (parse_xmlgl q8_src)
let q9 = lazy (parse_xmlgl q9_src)
let q10 = lazy (parse_wglog ~schema:Gql_wglog.Schema.restaurant_schema q10_src)
let q11 = lazy (parse_wglog ~schema:Gql_wglog.Schema.hyperdoc_schema q11_src)
let q12 = lazy (parse_wglog ~schema:Gql_wglog.Schema.hyperdoc_schema q12_src)
type entry = {
  name : string;
  description : string;
  kind : [ `Xmlgl of Gql_xmlgl.Ast.program Lazy.t | `Wglog of Gql_wglog.Ast.program Lazy.t ];
  xpath : string option;
  workload : [ `Bibliography | `Greengrocer | `People | `Restaurants | `Hyperdocs ];
}

let suite : entry list =
  [
    { name = "Q1"; description = "all books (deep copy)"; kind = `Xmlgl q1;
      xpath = Some q1_xpath; workload = `Bibliography };
    { name = "Q2"; description = "titles of books over 40"; kind = `Xmlgl q2;
      xpath = Some q2_xpath; workload = `Bibliography };
    { name = "Q3"; description = "persons with address (aggregate)"; kind = `Xmlgl q3;
      xpath = Some q3_xpath; workload = `People };
    { name = "Q4"; description = "product-vendor value join"; kind = `Xmlgl q4;
      xpath = Some q4_xpath; workload = `Greengrocer };
    { name = "Q5"; description = "vendors matching /Van.*/"; kind = `Xmlgl q5;
      xpath = Some q5_xpath; workload = `Greengrocer };
    { name = "Q6"; description = "persons without address (negation)"; kind = `Xmlgl q6;
      xpath = Some q6_xpath; workload = `People };
    { name = "Q7"; description = "last names at any depth"; kind = `Xmlgl q7;
      xpath = Some q7_xpath; workload = `Bibliography };
    { name = "Q8"; description = "title before price (ordered)"; kind = `Xmlgl q8;
      xpath = Some q8_xpath; workload = `Bibliography };
    { name = "Q9"; description = "persons grouped by employer"; kind = `Xmlgl q9;
      xpath = None; workload = `People };
    { name = "Q10"; description = "rest-list of menu-offering restaurants"; kind = `Wglog q10;
      xpath = None; workload = `Restaurants };
    { name = "Q11"; description = "derive sibling links"; kind = `Wglog q11;
      xpath = None; workload = `Hyperdocs };
    { name = "Q12"; description = "derive root links via index+"; kind = `Wglog q12;
      xpath = None; workload = `Hyperdocs };
  ]

(* --- textual MATCH variants --------------------------------------------- *)

(* The same questions asked through the GPML-style textual front-end:
   containment edges of an encoded document carry the empty name (so
   [-[]->] steps one level down and [-[:.+]->] any number), attribute
   slots and entity relations are named.  These ride the server suite so
   E12 and the served byte-identity tests exercise the textual path. *)

let m1_src =
  {|MATCH (b:BOOK)-[]->(t:title)
RETURN b, t.value
|}

let m2_src =
  {|MATCH (b:bib)-[:.+]->(n:last-name)
RETURN n.value
|}

let m3_src =
  {|MATCH (p:PERSON)-[]->(n:lastname)
NOT EXISTS { (p)-[]->(a:FULLADDR) }
RETURN p, n.value
|}

let m4_src =
  {|MATCH (v:vendor)-[]->(c:country)
WHERE c.value <> "nowhere"
RETURN v, c.value
|}

let m5_src =
  {|MATCH (r:Restaurant)-[:offers]->(m:Menu)-[:price]->(p)
WHERE p.value >= 20
RETURN m, p.value
|}

(* --- the server workload ------------------------------------------------ *)

type server_query = {
  sq_name : string;
  doc : string;
  schema : string option;
  source : string;
}

let server_suite : server_query list =
  [
    { sq_name = "Q1"; doc = "bibliography"; schema = None; source = q1_src };
    { sq_name = "Q2"; doc = "bibliography"; schema = None; source = q2_src };
    { sq_name = "Q7"; doc = "bibliography"; schema = None; source = q7_src };
    { sq_name = "Q8"; doc = "bibliography"; schema = None; source = q8_src };
    { sq_name = "Q3"; doc = "people"; schema = None; source = q3_src };
    { sq_name = "Q6"; doc = "people"; schema = None; source = q6_src };
    { sq_name = "Q9"; doc = "people"; schema = None; source = q9_src };
    { sq_name = "Q4"; doc = "greengrocer"; schema = None; source = q4_src };
    { sq_name = "Q5"; doc = "greengrocer"; schema = None; source = q5_src };
    { sq_name = "Q10"; doc = "restaurants"; schema = Some "restaurant";
      source = q10_src };
    { sq_name = "M1"; doc = "bibliography"; schema = None; source = m1_src };
    { sq_name = "M2"; doc = "bibliography"; schema = None; source = m2_src };
    { sq_name = "M3"; doc = "people"; schema = None; source = m3_src };
    { sq_name = "M4"; doc = "greengrocer"; schema = None; source = m4_src };
    { sq_name = "M5"; doc = "restaurants"; schema = None; source = m5_src };
  ]
