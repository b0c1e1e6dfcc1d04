(* Tests for Gql_xpath: parsing, axes, predicates, functions, coercions.
   The fixed document exercises every axis. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let doc =
  Gql_xml.Parser.parse_document
    {|<bib>
        <BOOK isbn="1"><title>Data on the Web</title><price>39.95</price>
          <AUTHOR><first-name>Serge</first-name><last-name>Abiteboul</last-name></AUTHOR>
          <AUTHOR><first-name>Dan</first-name><last-name>Suciu</last-name></AUTHOR>
        </BOOK>
        <BOOK isbn="2"><title>XML Query</title><price>55</price>
          <AUTHOR><first-name>Sara</first-name><last-name>Comai</last-name></AUTHOR>
        </BOOK>
        <BOOK isbn="3"><price>12</price></BOOK>
      </bib>|}

let idx = Gql_xpath.Index.build doc

let sel e = Gql_xpath.Eval.select_string idx e
let count e = List.length (sel e)
let value e = 
  match Gql_xpath.Eval.eval_expr idx (Gql_xpath.Parse.expr e) with
  | Gql_xpath.Eval.Str s -> s
  | Gql_xpath.Eval.Num f -> Printf.sprintf "%g" f
  | Gql_xpath.Eval.Bool b -> string_of_bool b
  | Gql_xpath.Eval.Nodeset ns ->
    String.concat "," (List.map (Gql_xpath.Index.string_value idx) ns)

(* --- paths -------------------------------------------------------------- *)

let test_absolute_paths () =
  check_int "root" 1 (count "/bib");
  check_int "children" 3 (count "/bib/BOOK");
  check_int "grandchildren" 2 (count "/bib/BOOK/title");
  check_int "no such" 0 (count "/bib/MAGAZINE")

let test_descendant () =
  check_int "//BOOK" 3 (count "//BOOK");
  check_int "//last-name" 3 (count "//last-name");
  check_int "nested //" 3 (count "/bib//AUTHOR");
  check_int "descendant axis" 3 (count "/bib/descendant::AUTHOR")

let test_wildcard () =
  check_int "all book children" 8 (count "/bib/BOOK/*");
  check_int "any root child" 3 (count "/bib/*")

let test_attribute_axis () =
  check_int "isbn attrs" 3 (count "//BOOK/@isbn");
  check_int "all attrs" 3 (count "//@*");
  check_str "attr value" "1" (value "string(/bib/BOOK[1]/@isbn)")

let test_parent_self () =
  check_int "parent of title" 2 (count "//title/..");
  check_int "self" 3 (count "//BOOK/.");
  check_int "parent axis" 2 (count "//title/parent::BOOK");
  check_int "ancestor" 1 (count "//last-name/ancestor::bib")

let test_siblings () =
  check_int "following" 2 (count "//title/following-sibling::price");
  check_int "preceding" 2 (count "//price/preceding-sibling::title")

let test_following_preceding () =
  (* elements after BOOK[1]'s title in document order: the rest of BOOK1
     (price + 2 AUTHOR subtrees = 7), BOOK2's subtree (6), BOOK3's (2) *)
  check_int "following of first title" 15 (count "//BOOK[1]/title/following::*");
  check_int "preceding prices" 2 (count "//BOOK[3]/price/preceding::price");
  check_int "following excludes descendants" 0
    (count "/bib/following::*");
  check_int "preceding excludes ancestors" 0
    (count "//last-name[1]/preceding::bib")

let test_text_node_test () =
  check_int "title texts" 2 (count "//title/text()");
  check_str "first title" "Data on the Web" (value "string(//title/text())")

(* --- predicates ----------------------------------------------------------- *)

let test_predicates_comparison () =
  check_int "cheap books" 2 (count "//BOOK[price < 40]");
  check_int "exact string" 1 (count "//BOOK[title = \"XML Query\"]");
  check_int "attr test" 1 (count "//BOOK[@isbn = \"2\"]");
  check_int "existence" 2 (count "//BOOK[title]");
  check_int "negated existence" 1 (count "//BOOK[not(title)]")

let test_predicates_position () =
  check_int "first book" 1 (count "//BOOK[1]");
  check_str "first book isbn" "1" (value "string(//BOOK[1]/@isbn)");
  check_str "last book isbn" "3" (value "string(//BOOK[last()]/@isbn)");
  check_int "position filter" 2 (count "//BOOK[position() > 1]")

let test_predicates_nested () =
  check_int "books by Suciu" 1
    (count "//BOOK[AUTHOR/last-name = \"Suciu\"]");
  check_int "chained predicates" 1 (count "//BOOK[title][price > 40]")

let test_boolean_connectives () =
  check_int "and" 1 (count "//BOOK[title and price > 40]");
  check_int "or" 3 (count "//BOOK[title or price < 20]")

(* --- functions -------------------------------------------------------------- *)

let test_string_functions () =
  check_int "contains" 1 (count "//BOOK[contains(title, \"Web\")]");
  check_int "starts-with" 1 (count "//BOOK[starts-with(title, \"XML\")]");
  check_str "concat" "ab" (value "concat(\"a\", \"b\")");
  check_str "normalize" "a b" (value "normalize-space(\"  a   b \")");
  check_str "substring" "ell" (value "substring(\"hello\", 2, 3)");
  check_str "strlen" "5" (value "string-length(\"hello\")")

let test_numeric_functions () =
  check_str "count" "3" (value "count(//BOOK)");
  check_str "sum" "106.95" (value "sum(//price)");
  check_str "floor" "3" (value "floor(3.7)");
  check_str "ceiling" "4" (value "ceiling(3.2)");
  check_str "round" "4" (value "round(3.5)");
  check_str "arith" "7" (value "1 + 2 * 3");
  check_str "div" "2" (value "4 div 2");
  check_str "mod" "1" (value "7 mod 2")

let test_name_function () =
  check_str "name" "bib" (value "name(/bib)")

let test_union () =
  check_int "titles and prices" 5 (count "//title | //price")

(* the supplied text's own XPath example shape *)
let test_paper_example () =
  let d2 =
    Gql_xml.Parser.parse_document
      {|<html><body><p><a href="http://xcerpt.org">about Xcerpt</a></p>
        <a href="local.html">Xcerpt intro</a><a href="http://other.org">other</a></body></html>|}
  in
  let idx2 = Gql_xpath.Index.build d2 in
  let hits =
    Gql_xpath.Eval.select_string idx2
      {|/html/body//a[contains(./text(),"Xcerpt") and starts-with(./@href,"http:")]|}
  in
  check_int "one qualifying link" 1 (List.length hits)

(* --- parsing --------------------------------------------------------------- *)

let test_parse_errors () =
  let bad s =
    match Gql_xpath.Parse.expr s with
    | _ -> false
    | exception Gql_xpath.Parse.Error _ -> true
  in
  check "empty" true (bad "");
  check "lone bracket" true (bad "//BOOK[");
  check "bad axis" true (bad "//sideways::x");
  check "trailing" true (bad "//a }");
  check "unterminated literal" true (bad "\"abc")

(* A printer from XPath ASTs back to source text, abbreviating where the
   parser expands ([//], [@], [.], [..]); the pp-agreement test parses
   what it prints. *)
module Xpath_pp = struct
  open Gql_xpath.Ast

  let axis_name = function
    | Child -> "child"
    | Descendant -> "descendant"
    | Descendant_or_self -> "descendant-or-self"
    | Self -> "self"
    | Parent -> "parent"
    | Ancestor -> "ancestor"
    | Ancestor_or_self -> "ancestor-or-self"
    | Attribute -> "attribute"
    | Following_sibling -> "following-sibling"
    | Preceding_sibling -> "preceding-sibling"
    | Following -> "following"
    | Preceding -> "preceding"

  let test_name = function
    | Name s -> s
    | Wildcard -> "*"
    | Text_test -> "text()"
    | Node_test -> "node()"
    | Comment_test -> "comment()"

  let rec pp_expr = function
    | Path p -> pp_path p
    | Literal s -> Printf.sprintf "%S" s
    | Number f ->
      if Float.is_integer f then string_of_int (int_of_float f)
      else string_of_float f
    | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (pp_expr a) (pp_binop op) (pp_expr b)
    | Neg e -> Printf.sprintf "(-%s)" (pp_expr e)
    | Call (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map pp_expr args))

  and pp_binop = function
    | Or -> "or" | And -> "and"
    | Eq -> "=" | Neq -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
    | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "div" | Mod -> "mod"
    | Union -> "|"

  and pp_step s =
    let base =
      match s.axis, s.test with
      | Child, t -> test_name t
      | Attribute, t -> "@" ^ test_name t
      | Self, Node_test -> "."
      | Parent, Node_test -> ".."
      | a, t -> axis_name a ^ "::" ^ test_name t
    in
    base
    ^ String.concat ""
        (List.map (fun p -> "[" ^ pp_expr p ^ "]") s.predicates)

  and pp_path p =
    (* [//] abbreviation is re-introduced where a descendant-or-self::node()
       step was produced by the parser. *)
    let rec steps = function
      | [] -> []
      | { axis = Descendant_or_self; test = Node_test; predicates = [] }
        :: next :: rest -> ("//" ^ pp_step next) :: steps rest
      | s :: rest -> ("/" ^ pp_step s) :: steps rest
    in
    let body = String.concat "" (steps p.steps) in
    if p.absolute then if body = "" then "/" else body
    else if String.length body > 0 && body.[0] = '/' then
      String.sub body 1 (String.length body - 1)
    else body
end

let test_pp_roundtrip () =
  List.iter
    (fun src ->
      let e = Gql_xpath.Parse.expr src in
      let printed = Xpath_pp.pp_expr e in
      let e2 = Gql_xpath.Parse.expr printed in
      (* evaluation agreement is the contract, not textual equality *)
      let v1 = Gql_xpath.Eval.eval_expr idx e in
      let v2 = Gql_xpath.Eval.eval_expr idx e2 in
      check (Printf.sprintf "pp roundtrip %s" src) true (v1 = v2))
    [
      "//BOOK[price < 40]/title";
      "/bib/BOOK/@isbn";
      "count(//AUTHOR)";
      "//BOOK[1]";
      "//title | //price";
      "//BOOK[contains(title, \"Web\")]";
    ]

let test_eval_errors () =
  let bad s =
    match Gql_xpath.Eval.eval_expr idx (Gql_xpath.Parse.expr s) with
    | _ -> false
    | exception Gql_xpath.Eval.Eval_error _ -> true
  in
  check "unknown function" true (bad "frobnicate(1)");
  check "count of number" true (bad "count(1)")

(* --- operator dispatch boundaries ----------------------------------------
   Evaluation splits the binary operators across three folds (arithmetic,
   equality, relational); an operator routed to the wrong fold raises the
   typed Eval_error instead of tripping an assert.  These pin down the full
   matrix of reachable combinations around those guards. *)

let test_dispatch_arithmetic () =
  check_str "mod" "2" (value "5 mod 3");
  check_str "mod sign follows dividend" "-2" (value "-5 mod 3");
  check_str "div" "2.5" (value "5 div 2");
  check_str "mixed precedence" "7" (value "1 + 2 * 3")

let test_dispatch_equality_mixed () =
  (* node-set vs number: each node's string value is coerced, and only
     Eq/Neq may reach this arm of the dispatch *)
  check_str "nodeset = number" "true" (value "//price = 55");
  check_str "nodeset != number" "true" (value "//price != 55");
  check_str "non-numeric text never equals" "false" (value "//title = 55");
  check_str "non-numeric text always differs" "true" (value "//title != 55")

let test_dispatch_relational_mixed () =
  (* node-set vs number relational: only Lt/Le/Gt/Ge may reach here *)
  check_str "some price below" "true" (value "//price < 13");
  check_str "some price above" "true" (value "//price > 50");
  check_str "none below" "false" (value "//price < 12");
  check_str "boundary inclusive" "true" (value "//price <= 12")

let () =
  Alcotest.run "gql_xpath"
    [
      ( "paths",
        [
          Alcotest.test_case "absolute" `Quick test_absolute_paths;
          Alcotest.test_case "descendant" `Quick test_descendant;
          Alcotest.test_case "wildcard" `Quick test_wildcard;
          Alcotest.test_case "attributes" `Quick test_attribute_axis;
          Alcotest.test_case "parent/self" `Quick test_parent_self;
          Alcotest.test_case "siblings" `Quick test_siblings;
          Alcotest.test_case "following/preceding" `Quick test_following_preceding;
          Alcotest.test_case "text()" `Quick test_text_node_test;
        ] );
      ( "predicates",
        [
          Alcotest.test_case "comparisons" `Quick test_predicates_comparison;
          Alcotest.test_case "positions" `Quick test_predicates_position;
          Alcotest.test_case "nested" `Quick test_predicates_nested;
          Alcotest.test_case "connectives" `Quick test_boolean_connectives;
        ] );
      ( "functions",
        [
          Alcotest.test_case "strings" `Quick test_string_functions;
          Alcotest.test_case "numerics" `Quick test_numeric_functions;
          Alcotest.test_case "name" `Quick test_name_function;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "paper example" `Quick test_paper_example;
        ] );
      ( "parsing",
        [
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "pp agreement" `Quick test_pp_roundtrip;
          Alcotest.test_case "eval errors" `Quick test_eval_errors;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "arithmetic" `Quick test_dispatch_arithmetic;
          Alcotest.test_case "equality mixed" `Quick test_dispatch_equality_mixed;
          Alcotest.test_case "relational mixed" `Quick
            test_dispatch_relational_mixed;
        ] );
    ]
