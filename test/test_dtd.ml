(* Tests for Gql_dtd: parsing, serialisation round-trip, validation
   (content models, attributes, IDs), attribute defaulting. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let book_dtd_src =
  "<!ELEMENT BOOK (title?,price,AUTHOR*)>\n\
   <!ATTLIST BOOK isbn CDATA #REQUIRED>\n\
   <!ELEMENT title (#PCDATA)>\n\
   <!ELEMENT price (#PCDATA)>\n\
   <!ELEMENT AUTHOR (first-name,last-name)>\n\
   <!ELEMENT first-name (#PCDATA)>\n\
   <!ELEMENT last-name (#PCDATA)>"

let book_dtd = Gql_dtd.Parse.parse_subset ~root_hint:"BOOK" book_dtd_src

(* --- parsing ----------------------------------------------------------- *)

let test_parse_elements () =
  check_int "six element declarations" 6 (List.length book_dtd.Gql_dtd.Ast.elements);
  match Gql_dtd.Ast.content_model book_dtd "BOOK" with
  | Some (Gql_dtd.Ast.Children re) ->
    Alcotest.(check (list string))
      "symbols" [ "title"; "price"; "AUTHOR" ]
      (Gql_regex.Syntax.symbols re)
  | _ -> Alcotest.fail "BOOK should have element content"

let test_parse_attlist () =
  match Gql_dtd.Ast.attrs_of book_dtd "BOOK" with
  | [ d ] ->
    check "name" true (d.Gql_dtd.Ast.attr_name = "isbn");
    check "required" true (d.Gql_dtd.Ast.default = Gql_dtd.Ast.Required)
  | _ -> Alcotest.fail "one attribute expected"

let test_parse_variants () =
  let dtd =
    Gql_dtd.Parse.parse_subset
      "<!ELEMENT e EMPTY>\n<!ELEMENT a ANY>\n<!ELEMENT m (#PCDATA|b|c)*>\n\
       <!ELEMENT ch ((x,y)|z+)>\n\
       <!ATTLIST e t (on|off) \"on\" i ID #IMPLIED r IDREF #IMPLIED>"
  in
  check "empty" true (Gql_dtd.Ast.content_model dtd "e" = Some Gql_dtd.Ast.Empty_content);
  check "any" true (Gql_dtd.Ast.content_model dtd "a" = Some Gql_dtd.Ast.Any_content);
  check "mixed" true
    (Gql_dtd.Ast.content_model dtd "m" = Some (Gql_dtd.Ast.Mixed [ "b"; "c" ]));
  (match Gql_dtd.Ast.content_model dtd "ch" with
  | Some (Gql_dtd.Ast.Children _) -> ()
  | _ -> Alcotest.fail "choice content expected");
  check "id attr recognised" true (Gql_dtd.Ast.is_id_attr dtd ~element:"e" ~attr:"i");
  check "idref attr recognised" true
    (Gql_dtd.Ast.is_idref_attr dtd ~element:"e" ~attr:"r");
  check "cdata not id" false (Gql_dtd.Ast.is_id_attr dtd ~element:"e" ~attr:"t")

let test_parse_errors () =
  let bad s =
    match Gql_dtd.Parse.parse_subset s with
    | _ -> false
    | exception Gql_dtd.Parse.Error _ -> true
  in
  check "mixed without star" true (bad "<!ELEMENT m (#PCDATA|b)>");
  check "garbage" true (bad "<!WHATEVER x>");
  check "unterminated" true (bad "<!ELEMENT a (b");
  check "duplicate element" true (bad "<!ELEMENT a (b*)> <!ELEMENT a EMPTY> <!ELEMENT b (#PCDATA)>")

let test_roundtrip () =
  let printed = Gql_dtd.Ast.to_string book_dtd in
  let reparsed = Gql_dtd.Parse.parse_subset ~root_hint:"BOOK" printed in
  let printed2 = Gql_dtd.Ast.to_string reparsed in
  Alcotest.(check string) "print-parse-print stable" printed printed2

let test_of_doc () =
  let doc =
    Gql_xml.Parser.parse_document
      "<!DOCTYPE r [<!ELEMENT r (x*)> <!ELEMENT x EMPTY>]><r><x/></r>"
  in
  match Gql_dtd.Parse.of_doc doc with
  | Some dtd ->
    check "root hint" true (dtd.Gql_dtd.Ast.root_hint = Some "r");
    check_int "two elements" 2 (List.length dtd.Gql_dtd.Ast.elements)
  | None -> Alcotest.fail "expected a DTD"

(* --- validation -------------------------------------------------------- *)

let parse_book s =
  Gql_xml.Parser.parse_document s

let valid_book =
  {|<BOOK isbn="1"><title>t</title><price>10</price><AUTHOR><first-name>A</first-name><last-name>B</last-name></AUTHOR></BOOK>|}

let test_validate_ok () =
  check "valid accepted" true (Gql_dtd.Validate.is_valid book_dtd (parse_book valid_book));
  (* title is optional *)
  check "no title ok" true
    (Gql_dtd.Validate.is_valid book_dtd (parse_book {|<BOOK isbn="1"><price>9</price></BOOK>|}))

let violations s = Gql_dtd.Validate.validate book_dtd (parse_book s)

let test_validate_content () =
  check "missing price" true
    (violations {|<BOOK isbn="1"><title>t</title></BOOK>|} <> []);
  check "order violation" true
    (violations {|<BOOK isbn="1"><price>9</price><title>t</title></BOOK>|} <> []);
  check "author incomplete" true
    (violations
       {|<BOOK isbn="1"><price>9</price><AUTHOR><first-name>A</first-name></AUTHOR></BOOK>|}
    <> []);
  check "undeclared element" true
    (violations {|<BOOK isbn="1"><price>9</price><extra/></BOOK>|} <> []);
  check "text in element content" true
    (violations {|<BOOK isbn="1">loose<price>9</price></BOOK>|} <> [])

let test_validate_attrs () =
  check "missing required isbn" true (violations {|<BOOK><price>9</price></BOOK>|} <> []);
  let dtd =
    Gql_dtd.Parse.parse_subset
      "<!ELEMENT e EMPTY><!ATTLIST e t (on|off) #REQUIRED f CDATA #FIXED \"v\">"
  in
  let v s = Gql_dtd.Validate.validate dtd (Gql_xml.Parser.parse_document s) in
  check "enum ok" true (v {|<e t="on"/>|} = []);
  check "enum bad" true (v {|<e t="maybe"/>|} <> []);
  check "fixed ok" true (v {|<e t="on" f="v"/>|} = []);
  check "fixed bad" true (v {|<e t="on" f="other"/>|} <> []);
  check "undeclared attr" true (v {|<e t="on" zz="1"/>|} <> [])

let test_validate_ids () =
  let dtd =
    Gql_dtd.Parse.parse_subset
      "<!ELEMENT g (n*)> <!ELEMENT n EMPTY>\n\
       <!ATTLIST n k ID #REQUIRED r IDREF #IMPLIED>"
  in
  let v s = Gql_dtd.Validate.validate dtd (Gql_xml.Parser.parse_document s) in
  check "ok" true (v {|<g><n k="a"/><n k="b" r="a"/></g>|} = []);
  check "duplicate id" true (v {|<g><n k="a"/><n k="a"/></g>|} <> []);
  check "dangling idref" true (v {|<g><n k="a" r="zz"/></g>|} <> [])

let test_validate_root () =
  check "wrong root" true
    (Gql_dtd.Validate.validate book_dtd
       (Gql_xml.Parser.parse_document "<title>t</title>")
    <> [])

let test_mixed_validation () =
  let dtd = Gql_dtd.Parse.parse_subset "<!ELEMENT p (#PCDATA|b)*> <!ELEMENT b (#PCDATA)>" in
  let v s = Gql_dtd.Validate.validate dtd (Gql_xml.Parser.parse_document s) in
  check "mixed ok" true (v "<p>x<b>y</b>z</p>" = []);
  check "mixed bad child" true (v "<p>x<i>y</i></p>" <> [])

let test_nondeterministic_models () =
  let dtd = Gql_dtd.Parse.parse_subset "<!ELEMENT a ((b,c)|(b,d))> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>" in
  let compiled = Gql_dtd.Validate.compile dtd in
  Alcotest.(check (list string)) "detected" [ "a" ]
    (Gql_dtd.Validate.nondeterministic_models compiled);
  let ok = Gql_dtd.Validate.compile book_dtd in
  Alcotest.(check (list string)) "book dtd clean" []
    (Gql_dtd.Validate.nondeterministic_models ok)

(* Property: generated bibliography documents are valid; defective ones
   are flagged. *)
let prop_generated_valid =
  QCheck.Test.make ~name:"clean bibliographies validate" ~count:20
    QCheck.(make Gen.(int_range 1 40))
    (fun n ->
      let doc = Gql_workload.Gen.bibliography ~seed:n n in
      Gql_dtd.Validate.is_valid Gql_workload.Gen.book_dtd doc)

let prop_defective_flagged =
  QCheck.Test.make ~name:"defective bibliographies rejected" ~count:20
    QCheck.(make Gen.(int_range 5 40))
    (fun n ->
      let doc = Gql_workload.Gen.bibliography ~seed:n ~defect_rate:1.0 n in
      not (Gql_dtd.Validate.is_valid Gql_workload.Gen.book_dtd doc))

let () =
  Alcotest.run "gql_dtd"
    [
      ( "parse",
        [
          Alcotest.test_case "elements" `Quick test_parse_elements;
          Alcotest.test_case "attlist" `Quick test_parse_attlist;
          Alcotest.test_case "variants" `Quick test_parse_variants;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "of_doc" `Quick test_of_doc;
        ] );
      ( "validate",
        [
          Alcotest.test_case "accepts valid" `Quick test_validate_ok;
          Alcotest.test_case "content models" `Quick test_validate_content;
          Alcotest.test_case "attributes" `Quick test_validate_attrs;
          Alcotest.test_case "ids" `Quick test_validate_ids;
          Alcotest.test_case "root" `Quick test_validate_root;
          Alcotest.test_case "mixed" `Quick test_mixed_validation;
          Alcotest.test_case "nondeterministic models" `Quick test_nondeterministic_models;
          QCheck_alcotest.to_alcotest prop_generated_valid;
          QCheck_alcotest.to_alcotest prop_defective_flagged;
        ] );
    ]
