(* Tests for Gql_data: value typing/comparison/arithmetic, XML->graph
   encoding (with ID/IDREF resolution), graph->XML decoding. *)

open Gql_data

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- values ------------------------------------------------------------- *)

let test_value_inference () =
  check "int" true (Value.of_string "42" = Value.Int 42);
  check "negative int" true (Value.of_string "-3" = Value.Int (-3));
  check "float" true (Value.of_string "2.19" = Value.Float 2.19);
  check "trimmed" true (Value.of_string " 7 " = Value.Int 7);
  check "bool" true (Value.of_string "true" = Value.Bool true);
  check "string stays" true (Value.of_string "12 monkeys" = Value.String "12 monkeys");
  check "empty stays" true (Value.of_string "" = Value.String "")

let test_value_compare () =
  check "numeric" true (Value.compare_values (Value.Int 2) (Value.Float 10.0) < 0);
  check "string numeric coercion" true
    (Value.compare_values (Value.String "0.79") (Value.Float 0.89) < 0);
  check "lexicographic" true
    (Value.compare_values (Value.String "apple") (Value.String "banana") < 0);
  check "equal across types" true
    (Value.equal_values (Value.Int 5) (Value.String "5"));
  check "not equal" false (Value.equal_values (Value.Int 5) (Value.String "five"))

let test_value_arith () =
  check "int add" true (Value.arith `Add (Value.Int 2) (Value.Int 3) = Some (Value.Int 5));
  check "float mul" true
    (Value.arith `Mul (Value.Float 2.0) (Value.Int 3) = Some (Value.Float 6.0));
  check "div by zero" true (Value.arith `Div (Value.Int 1) (Value.Int 0) = None);
  check "non-numeric" true
    (Value.arith `Add (Value.String "a") (Value.Int 1) = None);
  check "numeric strings" true
    (Value.arith `Add (Value.String "1") (Value.String "2") = Some (Value.Float 3.0))

let test_value_to_string () =
  check_str "int" "42" (Value.to_string (Value.Int 42));
  check_str "float integral" "2.0" (Value.to_string (Value.Float 2.0));
  check_str "string" "x" (Value.to_string (Value.String "x"))

(* --- encoding ------------------------------------------------------------ *)

let greengrocer_xml =
  {|<greengrocer>
      <products>
        <product><name>cabbage</name><price>0.59</price><vendor>DeRuiter</vendor></product>
        <product><name>cherry</name><price>2.19</price><vendor>Lafayette</vendor></product>
      </products>
      <vendors>
        <vendor><country>holland</country><name>DeRuiter</name></vendor>
        <vendor><country>france</country><name>Lafayette</name></vendor>
      </vendors>
    </greengrocer>|}

let g = Support.encode_string greengrocer_xml

let test_encode_shape () =
  check_int "one root" 1 (List.length (Graph.roots g));
  let root = List.hd (Graph.roots g) in
  check "root label" true (Graph.label g root = Some "greengrocer");
  check_int "two sections" 2 (List.length (Graph.children g root));
  check_int "products found" 2 (List.length (Graph.nodes_labelled g "product"));
  check_int "vendors found" 4 (List.length (Graph.nodes_labelled g "vendor"))

let test_string_value () =
  let p = List.hd (Graph.nodes_labelled g "price") in
  check_str "price text" "0.59" (Graph.string_value g p);
  check "typed as float" true (Graph.node_value g p = Value.Float 0.59)

let test_children_order () =
  let prod = List.hd (Graph.nodes_labelled g "product") in
  let kids = Graph.children g prod in
  check_int "three children" 3 (List.length kids);
  let labels = List.filter_map (fun (c, _) -> Graph.label g c) kids in
  Alcotest.(check (list string)) "ordered" [ "name"; "price"; "vendor" ] labels

let test_attributes () =
  let g2 = Support.encode_string {|<e a="1" b="x"/>|} in
  let root = List.hd (Graph.roots g2) in
  let attrs = Graph.attributes g2 root in
  check_int "two attrs" 2 (List.length attrs);
  check "typed attr" true (List.assoc "a" attrs = Value.Int 1)

let test_idref_resolution () =
  let g2 =
    Support.encode_string
      {|<db><person id="p1" ref="p2"/><person id="p2"/></db>|}
  in
  let persons = Graph.nodes_labelled g2 "person" in
  check_int "two persons" 2 (List.length persons);
  let p1 =
    List.find
      (fun p ->
        List.exists (fun (a, v) -> a = "id" && Value.to_string v = "p1")
          (Graph.attributes g2 p))
      persons
  in
  match Graph.refs g2 p1 with
  | [ (name, target) ] ->
    check_str "ref edge name" "ref" name;
    check "target is p2" true
      (List.exists
         (fun (a, v) -> a = "id" && Value.to_string v = "p2")
         (Graph.attributes g2 target))
  | _ -> Alcotest.fail "expected one ref edge"

let test_no_ref_resolution_optout () =
  let doc =
    Gql_xml.Parser.parse_document {|<db><a id="p1" ref="p2"/><b id="p2"/></db>|}
  in
  let g2, _ = Codec.encode ~resolve_refs:false doc in
  let a = List.hd (Graph.nodes_labelled g2 "a") in
  check "no refs when disabled" true (Graph.refs g2 a = [])

let test_whitespace_dropped () =
  let g2 = Support.encode_string "<a>\n  <b/>\n</a>" in
  let root = List.hd (Graph.roots g2) in
  check_int "whitespace not materialised" 1 (List.length (Graph.children g2 root))

let test_descendants () =
  let root = List.hd (Graph.roots g) in
  (* all complex + atom nodes below the root, minus attribute atoms *)
  let descendants =
    Support.bfs
      ~follow:(fun e -> e.Graph.kind <> Graph.Attribute)
      (Graph.digraph g) [ root ]
  in
  check "many descendants" true (List.length descendants > 11)

(* --- decoding ------------------------------------------------------------- *)

let test_decode_roundtrip () =
  let src = {|<a x="1"><b>7</b><c><d>text</d></c></a>|} in
  let g2 = Support.encode_string src in
  let root = List.hd (Graph.roots g2) in
  let decoded = Codec.decode g2 root in
  let original = (Gql_xml.Parser.parse_document src).Gql_xml.Tree.root in
  check "canonical equal" true (Support.equal_canonical original decoded)

let test_decode_refs () =
  let g2 =
    Support.encode_string {|<db><x id="a" ref="b"/><x id="b"/></db>|}
  in
  let root = List.hd (Graph.roots g2) in
  let decoded = Codec.decode g2 root in
  let s = Gql_xml.Printer.node_to_string (Gql_xml.Tree.Element decoded) in
  (* the ref edge must be rendered as matching id/idref attributes *)
  check "ref attribute present" true
    (Gql_regex.Chre.search (Gql_regex.Chre.compile "ref=") s)

let test_decode_cycle_safe () =
  (* a cyclic graph (possible after WG-Log derivation) must decode to a
     finite tree *)
  let g2 = Graph.create () in
  let a = Graph.add_complex g2 "a" in
  let b = Graph.add_complex g2 "b" in
  Graph.link g2 ~src:a ~dst:b (Graph.child_edge ~ord:0 "");
  Graph.link g2 ~src:b ~dst:a (Graph.child_edge ~ord:0 "");
  Graph.add_root g2 a;
  let decoded = Codec.decode g2 a in
  check "finite" true (Support.count_nodes decoded < 10)

(* Property: encoding never loses elements: element count in the tree =
   complex node count in the graph. *)
let prop_encode_counts =
  QCheck.Test.make ~name:"element count preserved by encoding" ~count:50
    QCheck.(make Gen.(int_range 1 30))
    (fun seed ->
      let doc = Gql_workload.Gen.random_tree ~seed (20 + seed) in
      let g2, _ = Codec.encode doc in
      let tree_elems =
        List.length (Support.descendant_elements doc.Gql_xml.Tree.root)
      in
      let graph_complex =
        List.length
          (List.filter
             (fun n -> not (Graph.is_atom g2 n))
             (List.init (Graph.n_nodes g2) Fun.id))
      in
      tree_elems = graph_complex)

(* Property: decode . encode preserves canonical structure on ref-free
   documents. *)
let prop_decode_encode_id =
  QCheck.Test.make ~name:"decode after encode is canonical identity" ~count:50
    QCheck.(make Gen.(int_range 1 30))
    (fun seed ->
      let doc = Gql_workload.Gen.random_tree ~seed ~ref_density:0.0 (15 + seed) in
      let g2, _ = Codec.encode doc in
      let root = List.hd (Graph.roots g2) in
      Support.equal_canonical doc.Gql_xml.Tree.root (Codec.decode g2 root))

let () =
  Alcotest.run "gql_data"
    [
      ( "value",
        [
          Alcotest.test_case "inference" `Quick test_value_inference;
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "arith" `Quick test_value_arith;
          Alcotest.test_case "to_string" `Quick test_value_to_string;
        ] );
      ( "encode",
        [
          Alcotest.test_case "shape" `Quick test_encode_shape;
          Alcotest.test_case "string value" `Quick test_string_value;
          Alcotest.test_case "children order" `Quick test_children_order;
          Alcotest.test_case "attributes" `Quick test_attributes;
          Alcotest.test_case "idref resolution" `Quick test_idref_resolution;
          Alcotest.test_case "resolution opt-out" `Quick test_no_ref_resolution_optout;
          Alcotest.test_case "whitespace" `Quick test_whitespace_dropped;
          Alcotest.test_case "descendants" `Quick test_descendants;
          QCheck_alcotest.to_alcotest prop_encode_counts;
        ] );
      ( "decode",
        [
          Alcotest.test_case "roundtrip" `Quick test_decode_roundtrip;
          Alcotest.test_case "refs" `Quick test_decode_refs;
          Alcotest.test_case "cycle safe" `Quick test_decode_cycle_safe;
          QCheck_alcotest.to_alcotest prop_decode_encode_id;
        ] );
    ]
