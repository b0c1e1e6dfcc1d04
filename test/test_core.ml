(* Tests for Gql_core: the facade and the expressiveness machinery. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let xml = Gql_xml.Printer.to_string (Gql_workload.Gen.people ~seed:4 10)

let test_load_and_stats () =
  let db = Gql_core.Gql.load_xml_string xml in
  let nodes, edges = Gql_core.Gql.stats db in
  check "nodes" true (nodes > 50);
  check "edges" true (edges >= nodes - 1)

let test_load_error () =
  match Gql_core.Gql.load_xml_string "<broken" with
  | _ -> Alcotest.fail "should fail"
  | exception Gql_core.Gql.Error msg ->
    check "mentions parse" true
      (Gql_regex.Chre.search (Gql_regex.Chre.compile "parse") msg)

let test_run_xmlgl_text () =
  let db = Gql_core.Gql.load_xml_string xml in
  let out = Gql_core.Gql.run_xmlgl_text db Gql_workload.Queries.q3_src in
  Alcotest.(check string) "result root" "RESULT" out.Gql_xml.Tree.name;
  check "some persons" true (out.Gql_xml.Tree.children <> [])

let test_parse_error_surface () =
  let db = Gql_core.Gql.load_xml_string xml in
  match Gql_core.Gql.run_xmlgl_text db "xmlgl\nrule\nquery\n node $a zz\nend\n" with
  | _ -> Alcotest.fail "should fail"
  | exception Gql_core.Gql.Error _ -> ()

let test_xpath_agreement () =
  let db = Gql_core.Gql.load_xml_string xml in
  let via_xpath = List.length (Gql_core.Gql.xpath_select db "//PERSON[FULLADDR]") in
  let via_xmlgl =
    List.length
      (Gql_core.Gql.run_xmlgl_text db Gql_workload.Queries.q3_src).Gql_xml.Tree.children
  in
  check_int "same count" via_xpath via_xmlgl

let test_xpath_value () =
  let db = Gql_core.Gql.load_xml_string xml in
  let idx = Lazy.force db.Gql_core.Gql.xpath_index in
  match Gql_xpath.Eval.eval_expr idx (Gql_xpath.Parse.expr "count(//PERSON)") with
  | Gql_xpath.Eval.Num f -> Alcotest.(check (float 0.0)) "count" 10.0 f
  | _ -> Alcotest.fail "count() should be a number"

let test_run_wglog () =
  let g = Gql_workload.Gen.restaurants ~seed:2 8 in
  let db = Gql_core.Gql.of_graph g in
  let stats = Gql_core.Gql.run_wglog_text ~schema:Gql_wglog.Schema.restaurant_schema
    db Gql_workload.Queries.q10_src in
  check "derived something" true (stats.Gql_wglog.Eval.edges_added > 0);
  (* xpath unavailable on pure graphs *)
  match Gql_core.Gql.xpath_select db "//x" with
  | _ -> Alcotest.fail "should fail"
  | exception Gql_core.Gql.Error _ -> ()

let test_validate_dtd_via_db () =
  let doc = Gql_workload.Gen.bibliography ~seed:3 5 in
  let db = Gql_core.Gql.of_document ~dtd:Gql_workload.Gen.book_dtd doc in
  Alcotest.(check int) "no violations" 0 (List.length (Gql_core.Gql.validate_dtd db))

let test_explain () =
  let db = Gql_core.Gql.load_xml_string xml in
  let p = Gql_core.Gql.parse_xmlgl Gql_workload.Queries.q3_src in
  let s = Gql_core.Gql.explain_xmlgl db p in
  check "plan text" true (Gql_regex.Chre.search (Gql_regex.Chre.compile "scan") s)

let test_diagram_roundtrip () =
  let p = Gql_core.Gql.parse_xmlgl Gql_workload.Queries.q3_src in
  let d = Gql_core.Gql.rule_diagram_xmlgl (List.hd p.Gql_xmlgl.Ast.rules) in
  let ascii = Gql_core.Gql.render_ascii d in
  check "ascii mentions PERSON" true
    (Gql_regex.Chre.search (Gql_regex.Chre.compile "PERSON") ascii)

(* --- expressiveness ---------------------------------------------------------- *)

let features_of_xmlgl src =
  Gql_core.Expressiveness.of_xmlgl (Gql_core.Gql.parse_xmlgl src)

let has f fs = List.mem f fs

let test_classifier_xmlgl () =
  let open Gql_core.Expressiveness in
  check "q4 value join" true (has Value_join (features_of_xmlgl Gql_workload.Queries.q4_src));
  check "q5 regex" true (has Regex_match (features_of_xmlgl Gql_workload.Queries.q5_src));
  check "q6 negation" true (has Negation (features_of_xmlgl Gql_workload.Queries.q6_src));
  check "q7 deep" true (has Deep_paths (features_of_xmlgl Gql_workload.Queries.q7_src));
  check "q8 ordered" true (has Ordered_content (features_of_xmlgl Gql_workload.Queries.q8_src));
  check "q9 grouping" true (has Grouping (features_of_xmlgl Gql_workload.Queries.q9_src));
  check "q1 has no joins" false (has Value_join (features_of_xmlgl Gql_workload.Queries.q1_src))

let test_classifier_wglog () =
  let open Gql_core.Expressiveness in
  let feats src schema =
    of_wglog (Gql_core.Gql.parse_wglog ~schema src)
  in
  let q10 = feats Gql_workload.Queries.q10_src Gql_wglog.Schema.restaurant_schema in
  check "q10 aggregation" true (has Aggregation q10);
  check "q10 restructuring" true (has Restructuring q10);
  let q12 = feats Gql_workload.Queries.q12_src Gql_wglog.Schema.hyperdoc_schema in
  check "q12 deep paths" true (has Deep_paths q12);
  check "q12 negation" true (has Negation q12);
  (* transitive closure: derived label also queried -> recursion *)
  let tc = feats "wglog\nrule\n  node a Document\n  node b Document\n  node c Document\n  edge a link b\n  edge b link c\n  cedge a link c\nend\n" Gql_wglog.Schema.hyperdoc_schema in
  check "closure is recursive" true (has Recursion tc)

let test_matrix_consistency () =
  let open Gql_core.Expressiveness in
  check_int "all features covered" (List.length all_features) (List.length matrix);
  (* XML-GL cannot do recursion, WG-Log can: the paper's headline contrast *)
  let find f = List.find (fun (g, _, _, _) -> g = f) matrix in
  let _, xmlgl, wglog, _ = find Recursion in
  check "xml-gl no recursion" true (xmlgl = Unsupported);
  check "wg-log recursion" true (wglog = Native);
  let _, xmlgl_o, wglog_o, _ = find Ordered_content in
  check "xml-gl ordered" true (xmlgl_o = Native);
  check "wg-log unordered model" true (wglog_o = Unsupported);
  check "table renders" true (String.length (matrix_to_string ()) > 300)

let () =
  Alcotest.run "gql_core"
    [
      ( "facade",
        [
          Alcotest.test_case "load + stats" `Quick test_load_and_stats;
          Alcotest.test_case "load error" `Quick test_load_error;
          Alcotest.test_case "run xmlgl" `Quick test_run_xmlgl_text;
          Alcotest.test_case "parse error" `Quick test_parse_error_surface;
          Alcotest.test_case "xpath agreement" `Quick test_xpath_agreement;
          Alcotest.test_case "xpath value" `Quick test_xpath_value;
          Alcotest.test_case "run wglog" `Quick test_run_wglog;
          Alcotest.test_case "validate dtd" `Quick test_validate_dtd_via_db;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "diagram" `Quick test_diagram_roundtrip;
        ] );
      ( "expressiveness",
        [
          Alcotest.test_case "xmlgl classifier" `Quick test_classifier_xmlgl;
          Alcotest.test_case "wglog classifier" `Quick test_classifier_wglog;
          Alcotest.test_case "matrix" `Quick test_matrix_consistency;
        ] );
    ]
