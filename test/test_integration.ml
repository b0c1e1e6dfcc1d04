(* End-to-end integration: every suite query on its workload, cross-engine
   agreement (XML-GL vs XPath on the navigationally-expressible queries),
   the E2 schema-agreement experiment in miniature, and golden outputs. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let db_of_doc doc = Gql_core.Gql.of_document doc

let bib = db_of_doc (Gql_workload.Gen.bibliography ~seed:21 20)
let grocer = db_of_doc (Gql_workload.Gen.greengrocer ~seed:22 25)
let folks = db_of_doc (Gql_workload.Gen.people ~seed:23 30)

let db_for = function
  | `Bibliography -> bib
  | `Greengrocer -> grocer
  | `People -> folks
  | `Restaurants -> Gql_core.Gql.of_graph (Gql_workload.Gen.restaurants ~seed:24 15)
  | `Hyperdocs -> Gql_core.Gql.of_graph (Gql_workload.Gen.hyperdocs ~seed:25 25)

(* Every suite query runs without error and produces work. *)
let test_suite_runs () =
  List.iter
    (fun (e : Gql_workload.Queries.entry) ->
      let db = db_for e.workload in
      match e.kind with
      | `Xmlgl p ->
        let out = Gql_core.Gql.run_xmlgl db (Lazy.force p) in
        check (e.name ^ " produced output") true (out.Gql_xml.Tree.children <> [])
      | `Wglog p ->
        let stats = Gql_core.Gql.run_wglog db (Lazy.force p) in
        check (e.name ^ " derived facts") true (stats.Gql_wglog.Eval.edges_added > 0))
    Gql_workload.Queries.suite

(* XML-GL and XPath agree on result cardinality where both can express
   the query (the engines share nothing but the input document). *)
let test_cross_engine_agreement () =
  let pairs =
    [ ("Q1", Gql_workload.Queries.q1_src, Gql_workload.Queries.q1_xpath, bib);
      ("Q2", Gql_workload.Queries.q2_src, Gql_workload.Queries.q2_xpath, bib);
      ("Q3", Gql_workload.Queries.q3_src, Gql_workload.Queries.q3_xpath, folks);
      ("Q5", Gql_workload.Queries.q5_src, Gql_workload.Queries.q5_xpath, grocer);
      ("Q6", Gql_workload.Queries.q6_src, Gql_workload.Queries.q6_xpath, folks);
      ("Q7", Gql_workload.Queries.q7_src, Gql_workload.Queries.q7_xpath, bib) ]
  in
  List.iter
    (fun (name, gl, xp, db) ->
      let gl_count =
        List.length (Gql_core.Gql.run_xmlgl_text db gl).Gql_xml.Tree.children
      in
      let xp_count = List.length (Gql_core.Gql.xpath_select db xp) in
      check_int (name ^ " agree") xp_count gl_count)
    pairs

let test_q4_join_agreement () =
  (* Q4's construction emits one origin element per (product, vendor
     pair); the XPath equivalent counts products with a resolvable
     vendor.  Compare on distinct products. *)
  let out = Gql_core.Gql.run_xmlgl_text grocer Gql_workload.Queries.q4_src in
  let xp = List.length (Gql_core.Gql.xpath_select grocer Gql_workload.Queries.q4_xpath) in
  check_int "every product resolves" xp (List.length out.Gql_xml.Tree.children)

let test_q8_ordered_agreement () =
  let gl =
    List.length (Gql_core.Gql.run_xmlgl_text bib Gql_workload.Queries.q8_src).Gql_xml.Tree.children
  in
  let xp = List.length (Gql_core.Gql.xpath_select bib Gql_workload.Queries.q8_xpath) in
  check_int "ordered agree" xp gl

(* Golden output: a fixed small database and the aggregation figure. *)
let test_golden_q3 () =
  let xml =
    {|<people>
        <PERSON><firstname>Ada</firstname><lastname>L</lastname><FULLADDR><city>London</city></FULLADDR></PERSON>
        <PERSON><firstname>Alan</firstname><lastname>T</lastname></PERSON>
      </people>|}
  in
  let db = Gql_core.Gql.load_xml_string xml in
  let out = Gql_core.Gql.run_xmlgl_text db Gql_workload.Queries.q3_src in
  let expected =
    "<RESULT><PERSON><firstname>Ada</firstname><lastname>L</lastname></PERSON></RESULT>"
  in
  Alcotest.(check string) "golden" expected (Gql_xml.Printer.node_to_string (Gql_xml.Tree.Element out))

let test_golden_q10 () =
  (* fixed restaurant base: 2 restaurants, one offering *)
  let g = Gql_data.Graph.create () in
  let module G = Gql_data.Graph in
  let r1 = G.add_complex g "Restaurant" in
  let r2 = G.add_complex g "Restaurant" in
  let m = G.add_complex g "Menu" in
  G.add_root g r1;
  ignore r2;
  G.link g ~src:r1 ~dst:m (G.rel_edge "offers");
  let db = Gql_core.Gql.of_graph g in
  let _ = Gql_core.Gql.run_wglog_text db Gql_workload.Queries.q10_src in
  let rl = G.nodes_labelled g "rest-list" in
  check_int "one list" 1 (List.length rl);
  let members = List.filter (fun (n, _) -> n = "member") (G.rels g (List.hd rl)) in
  check "only r1 collected" true (List.map snd members = [ r1 ])

(* E2 in miniature: DTD and XML-GL schema agree on a 60-document corpus. *)
let test_schema_agreement_corpus () =
  let s = Gql_xmlgl.Schema.of_dtd Gql_workload.Gen.book_dtd in
  let agree = ref 0 and total = ref 0 in
  for seed = 1 to 30 do
    List.iter
      (fun rate ->
        incr total;
        let doc = Gql_workload.Gen.bibliography ~seed ~defect_rate:rate 8 in
        let dtd_verdict = Gql_dtd.Validate.is_valid Gql_workload.Gen.book_dtd doc in
        let g, _ = Gql_data.Codec.encode doc in
        let gl_verdict = Gql_xmlgl.Schema.is_valid s g in
        if dtd_verdict = gl_verdict then incr agree)
      [ 0.0; 0.6 ]
  done;
  check_int "full agreement" !total !agree

(* Text -> parse -> render-as-diagram -> SVG for every suite query: the
   visual pipeline never fails on legal programs. *)
let test_visual_pipeline () =
  List.iter
    (fun (e : Gql_workload.Queries.entry) ->
      match e.kind with
      | `Xmlgl p ->
        List.iter
          (fun r ->
            let svg = Gql_visual.Svg.render_auto (Gql_visual.Builders.of_xmlgl_rule r) in
            check (e.name ^ " svg") true (String.length svg > 100))
          (Lazy.force p).Gql_xmlgl.Ast.rules
      | `Wglog p ->
        List.iter
          (fun r ->
            let svg = Gql_visual.Svg.render_auto (Gql_visual.Builders.of_wglog_rule r) in
            check (e.name ^ " svg") true (String.length svg > 100))
          (Lazy.force p).Gql_wglog.Ast.rules)
    Gql_workload.Queries.suite

(* Full pipeline property: on random trees, Q-like queries through text,
   algebra and matcher give identical results. *)
let prop_full_pipeline =
  QCheck.Test.make ~name:"text->engine = text->algebra on random docs" ~count:10
    QCheck.(make Gen.(int_range 1 20))
    (fun seed ->
      let doc = Gql_workload.Gen.random_tree ~seed 60 in
      let db = Gql_core.Gql.of_document doc in
      let src = {|xmlgl
rule
query
  node $a elem item
  node $b elem *
  edge $a $b
construct
  node c copy $b
  root c
end
|} in
      let p = Gql_core.Gql.parse_xmlgl src in
      let q = (List.hd p.Gql_xmlgl.Ast.rules).Gql_xmlgl.Ast.query in
      let m = List.sort compare (List.map Array.to_list (Gql_xmlgl.Matching.run db.Gql_core.Gql.graph q)) in
      let a = List.sort compare (List.map Array.to_list (Gql_algebra.Exec.run_xmlgl db.Gql_core.Gql.graph q)) in
      m = a)

(* A read that raises must still close its channel: loading a directory
   fails with [Sys_error] after the open, 100 times, and the process's
   open descriptors must not grow. *)
let test_load_closes_on_error () =
  let fd_dir = "/proc/self/fd" in
  if Sys.file_exists fd_dir then begin
    let open_fds () = Array.length (Sys.readdir fd_dir) in
    let before = open_fds () in
    for _ = 1 to 100 do
      match Gql_core.Gql.load_xml_file Filename.current_dir_name with
      | _ -> Alcotest.fail "loading a directory should fail"
      | exception Sys_error _ -> ()
    done;
    check_int "open descriptors" before (open_fds ())
  end

let () =
  Alcotest.run "integration"
    [
      ( "suite",
        [
          Alcotest.test_case "all queries run" `Quick test_suite_runs;
          Alcotest.test_case "cross-engine agreement" `Quick test_cross_engine_agreement;
          Alcotest.test_case "q4 join agreement" `Quick test_q4_join_agreement;
          Alcotest.test_case "q8 ordered agreement" `Quick test_q8_ordered_agreement;
        ] );
      ( "golden",
        [
          Alcotest.test_case "q3 aggregation figure" `Quick test_golden_q3;
          Alcotest.test_case "q10 wglog figure" `Quick test_golden_q10;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "schema agreement corpus" `Quick test_schema_agreement_corpus;
          Alcotest.test_case "visual pipeline" `Quick test_visual_pipeline;
          QCheck_alcotest.to_alcotest prop_full_pipeline;
        ] );
      ( "descriptors",
        [ Alcotest.test_case "load_xml_file closes on error" `Quick
            test_load_closes_on_error ] );
    ]
