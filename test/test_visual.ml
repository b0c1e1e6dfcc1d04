(* Tests for Gql_visual: diagram model, layered layout (coordinates,
   crossing metric), SVG and ASCII renderers, AST->diagram builders. *)

open Gql_visual

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let has re s = Gql_regex.Chre.search (Gql_regex.Chre.compile re) s

(* --- diagram model ------------------------------------------------------ *)

let test_model () =
  let d = Diagram.create "t" in
  let a = Diagram.add_node d Diagram.Box "alpha" in
  let b = Diagram.add_node d ~role:Diagram.Query_part Diagram.Circle_hollow "" in
  Diagram.add_edge d ~label:"x" a b;
  check_int "nodes" 2 (Diagram.n_nodes d);
  check_int "edges" 1 (Diagram.n_edges d);
  check "node lookup" true ((Diagram.node_by_id d a).Diagram.n_label = "alpha");
  check "wider label, wider box" true
    ((Diagram.node_by_id d a).Diagram.w > (Diagram.node_by_id d b).Diagram.w)

(* --- layout -------------------------------------------------------------- *)

let chain_diagram n =
  let d = Diagram.create "chain" in
  let ids = List.init n (fun i -> Diagram.add_node d Diagram.Box (Printf.sprintf "n%d" i)) in
  let rec link = function
    | a :: (b :: _ as rest) ->
      Diagram.add_edge d a b;
      link rest
    | _ -> ()
  in
  link ids;
  d

let test_layered_layers () =
  let d = chain_diagram 4 in
  Layout.layered d;
  (* a chain lays out on 4 distinct y levels, increasing *)
  let ys =
    List.map (fun (n : Diagram.node) -> n.Diagram.y) (Diagram.nodes d)
  in
  check_int "distinct levels" 4 (List.length (List.sort_uniq compare ys));
  let w, h = Diagram.extent d in
  check "positive extent" true (w > 0.0 && h > 0.0)

let test_layered_handles_cycles () =
  let d = Diagram.create "cycle" in
  let a = Diagram.add_node d Diagram.Box "a" in
  let b = Diagram.add_node d Diagram.Box "b" in
  Diagram.add_edge d a b;
  Diagram.add_edge d b a;
  Layout.layered d;
  let w, _ = Diagram.extent d in
  check "cycle laid out" true (w > 0.0)

let test_crossings_tree_zero () =
  (* a tree laid out by the layered algorithm has no crossings *)
  let d = Diagram.create "tree" in
  let root = Diagram.add_node d Diagram.Box "r" in
  let kids = List.init 3 (fun i -> Diagram.add_node d Diagram.Box (Printf.sprintf "k%d" i)) in
  List.iter (fun k -> Diagram.add_edge d root k) kids;
  Layout.layered d;
  check_int "no crossings" 0 (Layout.count_crossings d)

let test_barycentric_beats_grid () =
  (* K(3,3)-ish bipartite tangle: layered ordering should not be worse
     than the naive grid *)
  let mk () =
    let d = Diagram.create "tangle" in
    let tops = List.init 4 (fun i -> Diagram.add_node d Diagram.Box (Printf.sprintf "t%d" i)) in
    let bots = List.init 4 (fun i -> Diagram.add_node d Diagram.Box (Printf.sprintf "b%d" i)) in
    (* connect i -> (i+1 mod 4) and i -> i: a permutation tangle *)
    List.iteri
      (fun i t ->
        Diagram.add_edge d t (List.nth bots ((i + 1) mod 4));
        Diagram.add_edge d t (List.nth bots i))
      tops;
    d
  in
  let d1 = mk () in
  Layout.layered d1;
  let d2 = mk () in
  Layout.grid ~per_row:3 d2;
  check "layered <= grid crossings" true
    (Layout.count_crossings d1 <= Layout.count_crossings d2)

(* --- svg ------------------------------------------------------------------ *)

let sample_rule () =
  let p = Gql_lang.Xmlgl_text.parse_program Gql_workload.Queries.q3_src in
  List.hd p.Gql_xmlgl.Ast.rules

let test_svg_output () =
  let d = Builders.of_xmlgl_rule (sample_rule ()) in
  let svg = Svg.render_auto d in
  check "svg root" true (has "<svg xmlns" svg);
  check "closes" true (has "</svg>" svg);
  check "has rects" true (has "<rect" svg);
  check "has lines" true (has "<line" svg);
  check "query colour" true (has "#b03030" svg);
  check "construct colour" true (has "#2f7d32" svg);
  check "labels escaped" true (not (has "<text[^>]*<" svg))

let test_svg_is_wellformed_xml () =
  (* the renderer's output must be well-formed XML: parse it with the
     repository's own parser, for every suite query *)
  List.iter
    (fun (e : Gql_workload.Queries.entry) ->
      let svgs =
        match e.kind with
        | `Xmlgl p ->
          List.map
            (fun r -> Svg.render_auto (Builders.of_xmlgl_rule r))
            (Lazy.force p).Gql_xmlgl.Ast.rules
        | `Wglog p ->
          List.map
            (fun r -> Svg.render_auto (Builders.of_wglog_rule r))
            (Lazy.force p).Gql_wglog.Ast.rules
      in
      List.iter
        (fun svg ->
          match Gql_xml.Parser.parse_document svg with
          | doc ->
            check (e.Gql_workload.Queries.name ^ " svg root") true
              (doc.Gql_xml.Tree.root.Gql_xml.Tree.name = "svg")
          | exception Gql_xml.Parser.Error (msg, _) ->
            Alcotest.fail (e.Gql_workload.Queries.name ^ ": bad svg: " ^ msg))
        svgs)
    Gql_workload.Queries.suite

let test_svg_file () =
  let d = Builders.of_xmlgl_rule (sample_rule ()) in
  let path = Filename.temp_file "gql" ".svg" in
  Svg.write_file path d;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  check "file written" true (len > 200)

(* --- ascii ------------------------------------------------------------------ *)

let test_ascii_output () =
  let d = Builders.of_xmlgl_rule (sample_rule ()) in
  let s = Ascii.render_auto d in
  check "title" true (has "-- XML-GL rule --" s);
  check "person box" true (has "\\[PERSON\\]" s);
  check "construct arrows" true (has "==>" s);
  check "query arrows" true (has "-->" s)

(* --- builders ----------------------------------------------------------------- *)

let test_builder_xmlgl_shapes () =
  let p = Gql_lang.Xmlgl_text.parse_program {|xmlgl
rule
query
  node $a elem BOOK
  node $t content where self > 10
  node $at attr
  node $w elem *
  edge $a $t
  attredge $a isbn $at
  deep $a $w
  absent $a $w
construct
  node r new out
  node c copy $a deep
  node v value $t
  node k const "lit"
  node g all $a
  node h group $t
  root r
  edge r c
  edge r v attr price
end
|} in
  let d = Builders.of_xmlgl_rule (List.hd p.Gql_xmlgl.Ast.rules) in
  (* 4 query nodes + 6 construction nodes *)
  check_int "all nodes drawn" 10 (Diagram.n_nodes d);
  (* query edges 4 + construct edges 2 + binding edges 4 *)
  check_int "all edges drawn" 10 (Diagram.n_edges d);
  let svg = Svg.render_auto d in
  check "triangle present" true (has "<polygon" svg);
  check "circle present" true (has "<circle" svg);
  check "dashes for deep" true (has "stroke-dasharray" svg)

let test_builder_wglog () =
  let p = Gql_lang.Wglog_text.parse_program Gql_workload.Queries.q12_src in
  let d = Builders.of_wglog_rule (List.hd p.Gql_wglog.Ast.rules) in
  check_int "three entity boxes" 3 (Diagram.n_nodes d);
  let svg = Svg.render_auto d in
  check "regex edge dashed" true (has "stroke-dasharray" svg);
  check "thick green derive" true (has "2.6" svg)

let test_crossing_metric_positive () =
  (* two explicitly crossing segments *)
  let d = Diagram.create "x" in
  let a = Diagram.add_node d Diagram.Box "a" in
  let b = Diagram.add_node d Diagram.Box "b" in
  let c = Diagram.add_node d Diagram.Box "c" in
  let e = Diagram.add_node d Diagram.Box "d" in
  (Diagram.node_by_id d a).Diagram.x <- 0.0;
  (Diagram.node_by_id d a).Diagram.y <- 0.0;
  (Diagram.node_by_id d b).Diagram.x <- 100.0;
  (Diagram.node_by_id d b).Diagram.y <- 100.0;
  (Diagram.node_by_id d c).Diagram.x <- 100.0;
  (Diagram.node_by_id d c).Diagram.y <- 0.0;
  (Diagram.node_by_id d e).Diagram.x <- 0.0;
  (Diagram.node_by_id d e).Diagram.y <- 100.0;
  Diagram.add_edge d a b;
  Diagram.add_edge d c e;
  check_int "one crossing" 1 (Layout.count_crossings d)

let () =
  Alcotest.run "gql_visual"
    [
      ( "model", [ Alcotest.test_case "basics" `Quick test_model ] );
      ( "layout",
        [
          Alcotest.test_case "layers" `Quick test_layered_layers;
          Alcotest.test_case "cycles" `Quick test_layered_handles_cycles;
          Alcotest.test_case "tree has no crossings" `Quick test_crossings_tree_zero;
          Alcotest.test_case "layered <= grid" `Quick test_barycentric_beats_grid;
          Alcotest.test_case "crossing metric" `Quick test_crossing_metric_positive;
        ] );
      ( "svg",
        [
          Alcotest.test_case "output" `Quick test_svg_output;
          Alcotest.test_case "file" `Quick test_svg_file;
          Alcotest.test_case "well-formed xml" `Quick test_svg_is_wellformed_xml;
        ] );
      ( "ascii", [ Alcotest.test_case "output" `Quick test_ascii_output ] );
      ( "builders",
        [
          Alcotest.test_case "xmlgl shapes" `Quick test_builder_xmlgl_shapes;
          Alcotest.test_case "wglog" `Quick test_builder_wglog;
        ] );
    ]
