(* Tests for Gql_xml: parser, printer round-trip, tree utilities, ID
   index. *)

open Gql_xml

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let parse s = Parser.parse_document s
let root s = (parse s).Tree.root

(* --- parser ----------------------------------------------------------- *)

let test_minimal () =
  let e = root "<a/>" in
  check_str "name" "a" e.Tree.name;
  check_int "no children" 0 (List.length e.Tree.children)

let test_nesting () =
  let e = root "<a><b><c>deep</c></b><d/></a>" in
  check_int "two children" 2 (List.length (Support.child_elements e));
  check_str "text content" "deep" (Tree.text_content_el e)

let test_attributes () =
  let e = root {|<a x="1" y="two &amp; three"/>|} in
  check "x" true (Tree.attr e "x" = Some "1");
  check "entity in attr" true (Tree.attr e "y" = Some "two & three");
  check "missing" true (Tree.attr e "z" = None)

let test_single_quotes () =
  let e = root {|<a x='single'/>|} in
  check "single-quoted" true (Tree.attr e "x" = Some "single")

let test_entities () =
  let e = root "<a>&lt;tag&gt; &amp; &quot;text&quot; &apos;</a>" in
  check_str "decoded" "<tag> & \"text\" '" (Tree.text_content_el e)

let test_char_refs () =
  let e = root "<a>&#65;&#x42;</a>" in
  check_str "decimal and hex" "AB" (Tree.text_content_el e);
  let u = root "<a>&#233;</a>" in
  check_str "utf-8 encoding" "\xc3\xa9" (Tree.text_content_el u)

let test_cdata () =
  let e = root "<a><![CDATA[<not>&parsed;]]></a>" in
  check_str "cdata raw" "<not>&parsed;" (Tree.text_content_el e)

let test_comments_pis () =
  let e = root "<a><!-- note --><?php echo ?><b/></a>" in
  check_int "three children" 3 (List.length e.Tree.children);
  (match e.Tree.children with
  | [ Tree.Comment c; Tree.Pi (t, _); Tree.Element _ ] ->
    check_str "comment" " note " c;
    check_str "pi target" "php" t
  | _ -> Alcotest.fail "unexpected shape");
  check_int "one element child" 1 (List.length (Support.child_elements e))

let test_xml_decl_prolog () =
  let d = parse "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- c -->\n<a/>" in
  check_str "root" "a" d.Tree.root.Tree.name

let test_doctype () =
  let d = parse {|<!DOCTYPE bib SYSTEM "bib.dtd"><bib/>|} in
  (match d.Tree.doctype with
  | Some dt ->
    check_str "name" "bib" dt.Tree.dt_name;
    check "system" true (dt.Tree.system_id = Some "bib.dtd")
  | None -> Alcotest.fail "no doctype");
  let d2 = parse "<!DOCTYPE a [<!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)>]><a/>" in
  match d2.Tree.doctype with
  | Some { Tree.internal_subset = Some s; _ } ->
    check "subset captured" true
      (String.length s > 10 && String.sub s 0 9 = "<!ELEMENT")
  | _ -> Alcotest.fail "no internal subset"

let test_mixed_content () =
  let e = root "<p>hello <b>world</b>!</p>" in
  check_int "three nodes" 3 (List.length e.Tree.children);
  check_str "string value" "hello world!" (Tree.text_content_el e);
  check_str "own text" "hello !" (Support.own_text e)

let test_errors () =
  let bad s =
    match Parser.parse_document s with
    | _ -> false
    | exception Parser.Error _ -> true
  in
  check "unclosed" true (bad "<a>");
  check "mismatch" true (bad "<a></b>");
  check "junk after root" true (bad "<a/><b/>");
  check "duplicate attr" true (bad {|<a x="1" x="2"/>|});
  check "lt in attr" true (bad {|<a x="<"/>|});
  check "unknown entity" true (bad "<a>&nope;</a>");
  check "bad charref" true (bad "<a>&#xFFFFFFFF;</a>");
  check "empty input" true (bad "");
  check "attr without value" true (bad "<a x/>")

let test_error_position () =
  match Parser.parse_document "<a>\n<b></c>\n</a>" with
  | _ -> Alcotest.fail "should not parse"
  | exception Parser.Error (_, pos) -> check_int "line" 2 pos.Parser.line

let test_fragment () =
  let e = (Parser.parse_document "<x><y/></x>").Tree.root in
  check_str "fragment root" "x" e.Tree.name

(* --- printer ---------------------------------------------------------- *)

let test_print_escapes () =
  let e = Tree.element ~attrs:[ ("q", "a\"b") ] "t" [ Tree.text "a<b&c" ] in
  let s = Printer.node_to_string (Tree.Element e) in
  check "escaped text" true (s = {|<t q="a&quot;b">a&lt;b&amp;c</t>|})

let test_print_parse_roundtrip () =
  let src = {|<a x="1"><b>text &amp; more</b><c/><d y="z">mixed<e/>tail</d></a>|} in
  let d = parse src in
  let printed = Printer.to_string d in
  let d2 = parse printed in
  check "round trip equal" true (Support.equal_element d.Tree.root d2.Tree.root)

let test_pretty_no_mixed_damage () =
  (* pretty printing must not invent whitespace inside mixed content *)
  let d = parse "<a><p>hello <b>world</b></p></a>" in
  let pretty = Printer.to_string_pretty d in
  let d2 = parse pretty in
  match Support.find_first "p" d2.Tree.root with
  | Some p -> check_str "mixed preserved" "hello world" (Tree.text_content_el p)
  | None -> Alcotest.fail "p lost"

(* Random tree generator for round-trip property. *)
let tree_gen =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "item"; "x-y"; "ns:t" ] in
  let attr_val =
    string_size ~gen:(oneofl [ 'v'; '&'; '<'; '"'; ' '; 'z' ]) (int_bound 5)
  in
  let text_gen =
    string_size ~gen:(oneofl [ 't'; '&'; '<'; '>'; ' '; '\n'; 'x' ]) (int_range 1 6)
  in
  (* Adjacent text children would merge on reparse; keep generated trees
     in normal form by fusing them up front. *)
  let rec normalise = function
    | Tree.Text a :: Tree.Text b :: rest -> normalise (Tree.Text (a ^ b) :: rest)
    | x :: rest -> x :: normalise rest
    | [] -> []
  in
  let rec gen depth =
    if depth = 0 then map (fun n -> Tree.element n []) name
    else
      map3
        (fun n attrs children -> Tree.element ~attrs n (normalise children))
        name
        (map
           (fun vs -> List.mapi (fun i v -> (Printf.sprintf "a%d" i, v)) vs)
           (list_size (int_bound 3) attr_val))
        (list_size (int_bound 3)
           (frequency
              [
                (2, map (fun e -> Tree.Element e) (gen (depth - 1)));
                (1, map (fun t -> Tree.Text t) text_gen);
                ( 1,
                  map
                    (fun c -> Tree.Comment c)
                    (string_size ~gen:(oneofl [ 'c'; ' ' ]) (int_bound 4)) );
              ]))
  in
  gen 3

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print then parse is identity" ~count:300
    (QCheck.make tree_gen)
    (fun e ->
      let printed = Printer.node_to_string (Tree.Element e) in
      let reparsed = (Parser.parse_document printed).Tree.root in
      Support.equal_element e reparsed)

(* Robustness: arbitrary bytes either parse or raise Parser.Error —
   never crash, never loop. *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser is total on random bytes" ~count:500
    QCheck.(make Gen.(string_size ~gen:(map Char.chr (int_range 9 126)) (int_bound 40)))
    (fun junk ->
      match Parser.parse_document junk with
      | _ -> true
      | exception Parser.Error _ -> true)

let prop_parser_total_marked =
  QCheck.Test.make ~name:"parser is total on markup-ish noise" ~count:500
    QCheck.(
      make
        Gen.(
          map (String.concat "")
            (list_size (int_bound 12)
               (oneofl
                  [ "<"; ">"; "</"; "/>"; "a"; "b"; "\""; "="; "&"; "&amp;";
                    "<!--"; "-->"; "<![CDATA["; "]]>"; "<?"; "?>"; " " ]))))
    (fun junk ->
      match Parser.parse_document junk with
      | _ -> true
      | exception Parser.Error _ -> true)

(* --- tree utilities ---------------------------------------------------- *)

let sample =
  root
    {|<bib><BOOK isbn="1"><title>T1</title><price>10</price></BOOK><BOOK isbn="2"><price>99</price></BOOK></bib>|}

let test_find_all () =
  check_int "books" 2 (List.length (Support.find_all "BOOK" sample));
  check_int "titles" 1 (List.length (Support.find_all "title" sample));
  check "find_first" true
    (match Support.find_first "price" sample with
    | Some e -> Tree.text_content_el e = "10"
    | None -> false)

let test_paths () =
  let paths = ref [] in
  Tree.iter_nodes (fun p _ -> paths := p :: !paths) sample;
  let paths = List.rev !paths in
  check "root path" true (List.hd paths = []);
  List.iter
    (fun p -> check "node_at defined" true (Support.node_at sample p <> None))
    paths;
  check "missing path" true (Support.node_at sample [ 9; 9 ] = None);
  check_int "count" (Support.count_nodes sample) (List.length paths)

(* Document order is lexicographic order on paths: a prefix precedes its
   extensions (an element precedes its content), siblings go left to
   right. *)
let test_document_order () =
  let paths = ref [] in
  Tree.iter_nodes (fun p _ -> paths := p :: !paths) sample;
  let paths = List.rev !paths in
  check "visited in lexicographic order" true (List.sort compare paths = paths);
  check "prefix before extension" true
    (List.filteri (fun i _ -> i < 2) paths = [ []; [ 0 ] ])

let test_canonical_equal () =
  let a = root "<a x=\"1\" y=\"2\"><b/>  </a>" in
  let b = root "<a y=\"2\" x=\"1\"><!-- c --><b/></a>" in
  check "canonically equal" true (Support.equal_canonical a b);
  let c = root "<a y=\"2\" x=\"1\"><b/>text</a>" in
  check "text significant" false (Support.equal_canonical a c)

let test_depth () =
  check_int "depth" 3 (Support.max_depth (root "<a><b><c><d/></c></b></a>"))

(* --- ids --------------------------------------------------------------- *)

let id_doc =
  root
    {|<g><n id="n1"/><n id="n2" ref="n1"/><n id="n3" ref="missing"/><n idrefs="n1 n2"/></g>|}

let test_ids_index () =
  let idx = Ids.build id_doc in
  check "resolve n1" true (Ids.resolve idx "n1" <> None);
  check "resolve missing" true (Ids.resolve idx "nope" = None);
  check_int "ids" 3 (Hashtbl.length idx.Ids.ids);
  check_int "refs (incl idrefs list)" 4 (List.length idx.Ids.refs);
  check_int "dangling" 1 (List.length (Ids.dangling idx))

let test_duplicate_ids () =
  let d = root {|<g><a id="x"/><b id="x"/></g>|} in
  let idx = Ids.build d in
  Alcotest.(check (list string)) "dup" [ "x" ] idx.Ids.duplicates

let () =
  Alcotest.run "gql_xml"
    [
      ( "parser",
        [
          Alcotest.test_case "minimal" `Quick test_minimal;
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "attributes" `Quick test_attributes;
          Alcotest.test_case "single quotes" `Quick test_single_quotes;
          Alcotest.test_case "entities" `Quick test_entities;
          Alcotest.test_case "char refs" `Quick test_char_refs;
          Alcotest.test_case "cdata" `Quick test_cdata;
          Alcotest.test_case "comments and pis" `Quick test_comments_pis;
          Alcotest.test_case "xml decl" `Quick test_xml_decl_prolog;
          Alcotest.test_case "doctype" `Quick test_doctype;
          Alcotest.test_case "mixed content" `Quick test_mixed_content;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "error position" `Quick test_error_position;
          Alcotest.test_case "fragment" `Quick test_fragment;
        ] );
      ( "printer",
        [
          Alcotest.test_case "escapes" `Quick test_print_escapes;
          Alcotest.test_case "round trip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "pretty keeps mixed" `Quick test_pretty_no_mixed_damage;
          QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
          QCheck_alcotest.to_alcotest prop_parser_total;
          QCheck_alcotest.to_alcotest prop_parser_total_marked;
        ] );
      ( "tree",
        [
          Alcotest.test_case "find" `Quick test_find_all;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "document order" `Quick test_document_order;
          Alcotest.test_case "canonical equality" `Quick test_canonical_equal;
          Alcotest.test_case "depth" `Quick test_depth;
        ] );
      ( "ids",
        [
          Alcotest.test_case "index" `Quick test_ids_index;
          Alcotest.test_case "duplicates" `Quick test_duplicate_ids;
        ] );
    ]
