(* Tests for Gql_algebra: plan construction, EXPLAIN rendering, and the
   central equivalence property — plans (fail-first and any other join
   order) produce the same bindings as the direct Homo matcher. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let people_doc n = Gql_workload.Gen.people ~seed:3 n
let people n = fst (Gql_data.Codec.encode (people_doc n))

let q_src = Gql_workload.Queries.q3_src
let query_of src =
  match (Gql_lang.Xmlgl_text.parse_program src).Gql_xmlgl.Ast.rules with
  | r :: _ -> r.Gql_xmlgl.Ast.query
  | [] -> Alcotest.fail "no rule"

let normalise bs = List.sort compare (List.map Array.to_list bs)

(* Plan-shape helpers for the assertions below. *)
module Plan_shape = struct
  open Gql_algebra.Plan

  (* Variables bound by a plan, in binding order. *)
  let rec vars = function
    | Scan { var; _ } -> [ var ]
    | Expand { input; dst; _ } -> dst :: vars input
    | Edge_check { input; _ } | Filter { input; _ } -> vars input
    | Cross { left; right; _ } -> vars left @ vars right

  let rec size = function
    | Scan _ -> 1
    | Expand { input; _ } | Edge_check { input; _ } | Filter { input; _ } ->
      1 + size input
    | Cross { left; right; _ } -> 1 + size left + size right

  let rec has_cross = function
    | Scan _ -> false
    | Expand { input; _ } | Edge_check { input; _ } | Filter { input; _ } ->
      has_cross input
    | Cross _ -> true
end

let test_plan_structure () =
  let data = people 20 in
  let q = query_of q_src in
  let compiled = Gql_xmlgl.Matching.compile data q in
  let job = Gql_algebra.Planner.job_of_xmlgl compiled in
  let plan = Gql_algebra.Planner.build data job in
  (* 4 pattern nodes: 1 scan + 3 expands + 1 residual filter = 5 ops *)
  check_int "operator count" 5 (Plan_shape.size plan);
  check_int "all vars bound" 4
    (List.length (List.sort_uniq compare (Plan_shape.vars plan)))

let test_explain () =
  let data = people 10 in
  let s = Gql_algebra.Exec.explain_xmlgl data (query_of q_src) in
  check "mentions scan" true (Gql_regex.Chre.search (Gql_regex.Chre.compile "scan") s);
  check "mentions expand" true (Gql_regex.Chre.search (Gql_regex.Chre.compile "expand") s);
  check "mentions filter" true (Gql_regex.Chre.search (Gql_regex.Chre.compile "filter") s)

let test_greedy_starts_selective () =
  (* greedy must not start from the most common node type *)
  let data = people 30 in
  let q = query_of q_src in
  let s = Gql_algebra.Exec.explain_xmlgl data q in
  (* the deepest line (innermost op) is the scan; it must not scan the
     most frequent label.  We just require a single scan (connected
     pattern => no cross products). *)
  let count_scans =
    List.length
      (List.filter
         (fun l -> Gql_regex.Chre.search (Gql_regex.Chre.compile "scan") l)
         (String.split_on_char '\n' s))
  in
  check_int "single scan" 1 count_scans

(* The fail-first plan and the join-order reference — declaration order
   by default, a permutation drawn from [seed] when given — must both
   answer what the matcher answers. *)
let agree ?seed src data =
  let q = query_of src in
  let reference = normalise (Gql_xmlgl.Matching.run data q) in
  let planner =
    match seed with
    | Some seed -> Gql_fuzz.Oracle.shuffled_planner ~seed
    | None ->
      fun data (job : Gql_algebra.Planner.job) ->
        let k = Array.length job.Gql_algebra.Planner.pattern.Gql_graph.Homo.p_nodes in
        Gql_algebra.Planner.build_in_order data job (List.init k Fun.id)
  in
  let planned = normalise (Gql_algebra.Exec.run_xmlgl data q) in
  let reordered = normalise (Gql_algebra.Exec.run_xmlgl ~planner data q) in
  reference = planned && reference = reordered

let test_equivalence_q3 () = check "q3" true (agree Gql_workload.Queries.q3_src (people 25))
let test_equivalence_q6 () = check "q6 (negation)" true (agree Gql_workload.Queries.q6_src (people 25))
let test_equivalence_q9 () = check "q9" true (agree Gql_workload.Queries.q9_src (people 25))

let test_equivalence_bib () =
  let data = fst (Gql_data.Codec.encode (Gql_workload.Gen.bibliography ~seed:9 15)) in
  check "q2 (selection)" true (agree Gql_workload.Queries.q2_src data);
  check "q7 (deep)" true (agree Gql_workload.Queries.q7_src data);
  check "q8 (ordered)" true (agree Gql_workload.Queries.q8_src data)

let test_equivalence_greengrocer () =
  let data = fst (Gql_data.Codec.encode (Gql_workload.Gen.greengrocer ~seed:2 20)) in
  check "q4 (value join)" true (agree Gql_workload.Queries.q4_src data);
  check "q5 (regex)" true (agree Gql_workload.Queries.q5_src data)

(* disconnected pattern -> cross product *)
let test_cross_product () =
  let data = people 5 in
  let src = {|xmlgl
rule
query
  node $a elem firstname
  node $b elem lastname
construct
  node c new pair
  root c
end
|} in
  let q = query_of src in
  let res = Gql_algebra.Exec.run_xmlgl data q in
  check_int "5 x 5 pairs" 25 (List.length res);
  let s = Gql_algebra.Exec.explain_xmlgl data q in
  check "uses cross" true (Gql_regex.Chre.search (Gql_regex.Chre.compile "cross") s);
  check "matches reference" true (agree src data)

(* Property over random people-db sizes and join orders: fail-first and
   a seeded random order agree with the matcher on Q3 and Q6. *)
let prop_strategies_agree =
  QCheck.Test.make ~name:"plans agree with matcher on Q3/Q6" ~count:15
    QCheck.(make Gen.(pair (int_range 3 25) (int_bound 0x3FFFFFFF)))
    (fun (n, seed) ->
      let data = people n in
      agree ~seed Gql_workload.Queries.q3_src data
      && agree ~seed Gql_workload.Queries.q6_src data)

(* --- cost model and planner ordering regressions (PR 8) --------------- *)

module H = Gql_graph.Homo
module Graph = Gql_data.Graph

let contains s lit = Gql_regex.Chre.search (Gql_regex.Chre.compile lit) s
let label_pred l _ k = k = Graph.Complex l

(* A graph whose label cardinalities are the whole point: A x5, B x100,
   C x7.  One A node carries an edge to a B and to a C so the patterns
   below are satisfiable; shape is otherwise irrelevant. *)
let counted_graph () =
  let g = Graph.create () in
  let add l n = List.init n (fun _ -> Graph.add_complex g l) in
  (match (add "A" 5, add "B" 100, add "C" 7) with
  | x :: _, y :: _, z :: _ ->
    Graph.link g ~src:x ~dst:y (Graph.rel_edge "r");
    Graph.link g ~src:x ~dst:z (Graph.rel_edge "r")
  | _ -> assert false);
  g

let test_capped_estimate_order () =
  let data = counted_graph () in
  let pattern =
    {
      H.p_nodes = [| label_pred "A"; label_pred "B"; label_pred "C" |];
      p_edges =
        [ (0, H.Direct (fun _ -> true), 1); (0, H.Direct (fun _ -> true), 2) ];
    }
  in
  let job =
    { Gql_algebra.Planner.pattern; residuals = []; provider = None }
  in
  (* True counts are A=5 < C=7 << B=100: bind A, then C, then B.  The
     pre-PR-8 planner capped *every* scan estimate at best+1 during the
     counting pass, so B and C both reported 6 and B (the lower
     variable id) was expanded first.  [Plan_shape.vars] lists the binding
     order outermost-first. *)
  let plan = Gql_algebra.Planner.build data job in
  check_int "binding order A,C,B" 0
    (compare (Plan_shape.vars plan) [ 1; 2; 0 ])

(* EXPLAIN's Expand rows read the destination's exact count even when
   fail-first never scanned it: C is bound through an edge, so its count
   is still the capped lower bound make_estimates left (A's 5 + 1). *)
let test_expand_rows_use_exact_counts () =
  let data = counted_graph () in
  let pattern =
    {
      H.p_nodes = [| label_pred "A"; label_pred "C" |];
      p_edges = [ (0, H.Direct (fun _ -> true), 1) ];
    }
  in
  let job = { Gql_algebra.Planner.pattern; residuals = []; provider = None } in
  match Gql_algebra.Planner.build data job with
  | Gql_algebra.Plan.Expand { est = Some e; dst = 1; _ } ->
    (* 5 A rows x average degree 2/112 (clamped to 1) x selectivity 7/112 *)
    let n = float_of_int (Graph.n_nodes data) in
    Alcotest.(check (float 1e-9)) "expand rows" (5.0 *. 1.0 *. (7.0 /. n))
      e.Gql_algebra.Plan.est_rows
  | p -> Alcotest.failf "unexpected plan:\n%s" (Gql_algebra.Plan.to_string p)

let test_parallel_edges_prefer_direct () =
  let data = counted_graph () in
  let rp =
    Gql_graph.Regpath.compile
      (fun sym (e : Graph.edge) ->
        Gql_lang.Label_re.symbol_matches sym e.Graph.name)
      (Gql_lang.Label_re.parse ".+")
  in
  (* Two parallel edges between the same endpoints: the regular path is
     declared first, but the Direct edge must carry the Expand and the
     path must be demoted to a post-hoc edge check — under fail-first
     and under either binding order. *)
  let pattern =
    {
      H.p_nodes = [| label_pred "A"; label_pred "B" |];
      p_edges = [ (0, H.Path rp, 1); (0, H.Direct (fun _ -> true), 1) ];
    }
  in
  let job =
    { Gql_algebra.Planner.pattern; residuals = []; provider = None }
  in
  List.iter
    (fun plan ->
      let s = Gql_algebra.Plan.to_string plan in
      check "expand rides the direct edge" true (contains s "via direct");
      check "path edge demoted to a check" true (contains s "\\(path\\)");
      check "no path expansion" false (contains s "via path"))
    (Gql_algebra.Planner.build data job
    :: List.map (Gql_algebra.Planner.build_in_order data job) [ [ 0; 1 ]; [ 1; 0 ] ])

let test_sentinel_million_candidates () =
  (* Regression for the old pick_next scoring [est + 1_000_000 if
     unconnected]: a *connected* node backed by a posting set of more
     than a million candidates scored worse than a 16-candidate
     unconnected one, so the planner started a cartesian product on a
     connected pattern.  The fixture must genuinely cross the sentinel,
     hence the million items. *)
  let data = Gql_workload.Gen.wide_graph ~seed:47 ~hubs:16 1_000_100 in
  let idx = Gql_data.Index.build data in
  let q =
    Gql_match.Parse.parse
      "MATCH (h:Hub)-[:rel]->(i:Item)<-[:rel]-(g:Hub)\nRETURN h, i, g\n"
  in
  let c = Gql_match.Compile.compile q in
  let job = Gql_match.Compile.job ~index:idx c in
  check "connected pattern has no cross" false
    (Plan_shape.has_cross (Gql_algebra.Planner.build data job))

(* --- golden cost-annotated EXPLAIN suite ------------------------------ *)

let check_str = Alcotest.(check string)

let explain_suite () : string =
  let buf = Buffer.create 4096 in
  let section name s =
    Buffer.add_string buf ("== " ^ name ^ " ==\n");
    Buffer.add_string buf s
  in
  let graph_of doc = fst (Gql_data.Codec.encode doc) in
  let with_idx data = (data, Gql_data.Index.build data) in
  let bib, bib_idx =
    with_idx (graph_of (Gql_workload.Gen.bibliography ~seed:61 100))
  in
  let ppl, ppl_idx =
    with_idx (graph_of (Gql_workload.Gen.people ~seed:62 400))
  in
  let grn, grn_idx =
    with_idx (graph_of (Gql_workload.Gen.greengrocer ~seed:63 800))
  in
  let rst, rst_idx = with_idx (Gql_workload.Gen.restaurants ~seed:64 200) in
  let m (data, idx) name src =
    section name
      (Gql_match.Eval.explain ~index:idx data (Gql_match.Parse.parse src))
  in
  m (bib, bib_idx) "M1 (bibliography)" Gql_workload.Queries.m1_src;
  m (bib, bib_idx) "M2 (bibliography)" Gql_workload.Queries.m2_src;
  m (ppl, ppl_idx) "M3 (people)" Gql_workload.Queries.m3_src;
  m (grn, grn_idx) "M4 (greengrocer)" Gql_workload.Queries.m4_src;
  m (rst, rst_idx) "M5 (restaurants)" Gql_workload.Queries.m5_src;
  let x (data, idx) name src =
    section name (Gql_algebra.Exec.explain_xmlgl ~index:idx data (query_of src))
  in
  x (bib, bib_idx) "Q2 (bibliography, XML-GL)" Gql_workload.Queries.q2_src;
  x (ppl, ppl_idx) "Q3 (people, XML-GL)" Gql_workload.Queries.q3_src;
  Buffer.contents buf

(* Byte-compared against test/golden/explain_cost.txt: any change to
   the join order, the cost formulas or their constants, estimate
   plumbing or plan rendering shows up as a diff here.  To update, run the test and copy
   the printed actual over the golden file. *)
let test_explain_golden () =
  let golden =
    let ic = open_in "golden/explain_cost.txt" in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let actual = explain_suite () in
  if actual <> golden then (
    Printf.printf "--- actual golden/explain_cost.txt ---\n%s" actual;
    check_str "cost-annotated EXPLAIN suite" golden actual)

(* The fail-first plan must agree with a random join order on result
   bytes for arbitrary fuzz-generated documents and MATCH queries — the
   same canonical-body comparison the differential fuzzer runs. *)
let prop_order_independent =
  QCheck.Test.make ~name:"plans match random join order (fuzz)"
    ~count:200
    QCheck.(make Gen.(pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF)))
    (fun (seed, order_seed) ->
      let case = Gql_fuzz.Casegen.generate ~seed in
      let db = Gql_core.Gql.load_xml_string case.Gql_fuzz.Casegen.xml in
      let data = db.Gql_core.Gql.graph in
      let index = Gql_core.Gql.index db in
      let q = Gql_match.Parse.parse case.Gql_fuzz.Casegen.match_src in
      match Gql_match.Compile.compile q with
      | exception Gql_match.Compile.Error _ -> true
      | c ->
        let body planner =
          Gql_match.Eval.body data c
            (Gql_match.Eval.bindings_algebra ?planner ~index data c)
        in
        body None
        = body (Some (Gql_fuzz.Oracle.shuffled_planner ~seed:order_seed)))

let () =
  Alcotest.run "gql_algebra"
    [
      ( "planner",
        [
          Alcotest.test_case "plan structure" `Quick test_plan_structure;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "greedy single scan" `Quick test_greedy_starts_selective;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "q3 people" `Quick test_equivalence_q3;
          Alcotest.test_case "q6 negation" `Quick test_equivalence_q6;
          Alcotest.test_case "q9 grouping" `Quick test_equivalence_q9;
          Alcotest.test_case "bibliography queries" `Quick test_equivalence_bib;
          Alcotest.test_case "greengrocer queries" `Quick test_equivalence_greengrocer;
          Alcotest.test_case "cross product" `Quick test_cross_product;
          QCheck_alcotest.to_alcotest prop_strategies_agree;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "capped estimates keep true order" `Quick
            test_capped_estimate_order;
          Alcotest.test_case "parallel edges prefer direct" `Quick
            test_parallel_edges_prefer_direct;
          Alcotest.test_case "expand rows use exact counts" `Quick
            test_expand_rows_use_exact_counts;
          Alcotest.test_case "million-candidate node stays connected" `Quick
            test_sentinel_million_candidates;
          Alcotest.test_case "golden cost-annotated explains" `Quick
            test_explain_golden;
          QCheck_alcotest.to_alcotest prop_order_independent;
        ] );
    ]
