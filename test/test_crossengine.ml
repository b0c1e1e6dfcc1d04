(* Cross-engine agreement properties: the three query engines (direct
   matcher, algebra plans with both strategies, XPath where expressible)
   must agree on randomly generated documents — this is the strongest
   correctness net in the repository because the engines share no code
   beyond the data model. *)

let check = Alcotest.(check bool)

(* Build a small query: elements named [parent] containing [child],
   returning the bindings count through each engine. *)
let q_parent_child parent child =
  Printf.sprintf
    {|xmlgl
rule
query
  node $a elem %s
  node $b elem %s
  edge $a $b
construct
  node c copy $b
  root c
end
|}
    parent child

(* The matcher, the fail-first plan and a plan in a join order drawn
   from [seed] must bind the same. *)
let engines_agree_on ~seed src db xpath =
  let p = Gql_core.Gql.parse_xmlgl src in
  let q = (List.hd p.Gql_xmlgl.Ast.rules).Gql_xmlgl.Ast.query in
  let norm bs = List.sort compare (List.map Array.to_list bs) in
  let m = norm (Gql_xmlgl.Matching.run db.Gql_core.Gql.graph q) in
  let g = norm (Gql_algebra.Exec.run_xmlgl db.Gql_core.Gql.graph q) in
  let f =
    norm
      (Gql_algebra.Exec.run_xmlgl
         ~planner:(Gql_fuzz.Oracle.shuffled_planner ~seed)
         db.Gql_core.Gql.graph q)
  in
  m = g && m = f
  &&
  match xpath with
  | None -> true
  | Some x -> List.length m = List.length (Gql_core.Gql.xpath_select db x)

(* random tag-pool documents *)
let random_db seed =
  Gql_core.Gql.of_document (Gql_workload.Gen.random_tree ~seed ~ref_density:0.0 80)

let tags = [ "a"; "b"; "c"; "item"; "entry"; "node" ]

let prop_parent_child =
  QCheck.Test.make ~name:"parent/child agreement on random docs" ~count:40
    QCheck.(make Gen.(triple (int_range 1 500) (oneofl tags) (oneofl tags)))
    (fun (seed, parent, child) ->
      let db = random_db seed in
      engines_agree_on ~seed (q_parent_child parent child) db
        (Some (Printf.sprintf "//%s/%s" parent child)))

let q_deep anc desc =
  Printf.sprintf
    {|xmlgl
rule
query
  node $a elem %s
  node $b elem %s
  deep $a $b
construct
  node c copy $b
  root c
end
|}
    anc desc

let prop_deep =
  QCheck.Test.make ~name:"deep-edge agreement on random docs" ~count:30
    QCheck.(make Gen.(triple (int_range 1 500) (oneofl tags) (oneofl tags)))
    (fun (seed, anc, desc) ->
      let db = random_db seed in
      (* engines agree on bindings; against XPath compare *distinct
         descendants* (a node under two same-named ancestors is one XPath
         result but two bindings) *)
      engines_agree_on ~seed (q_deep anc desc) db None
      &&
      let p = Gql_core.Gql.parse_xmlgl (q_deep anc desc) in
      let q = (List.hd p.Gql_xmlgl.Ast.rules).Gql_xmlgl.Ast.query in
      let bindings = Gql_xmlgl.Matching.run db.Gql_core.Gql.graph q in
      let distinct_desc =
        List.sort_uniq compare (List.map (fun b -> b.(1)) bindings)
      in
      List.length distinct_desc
      = List.length
          (Gql_core.Gql.xpath_select db
             (Printf.sprintf "//%s/descendant::%s" anc desc)))

let q_absent parent missing =
  Printf.sprintf
    {|xmlgl
rule
query
  node $a elem %s
  node $b elem %s
  absent $a $b
construct
  node c copy $a
  root c
end
|}
    parent missing

let prop_absent =
  QCheck.Test.make ~name:"negation agreement on random docs" ~count:30
    QCheck.(make Gen.(triple (int_range 1 500) (oneofl tags) (oneofl tags)))
    (fun (seed, parent, missing) ->
      let db = random_db seed in
      engines_agree_on ~seed (q_absent parent missing) db
        (Some (Printf.sprintf "//%s[not(%s)]" parent missing)))

let q_attr_select tag =
  Printf.sprintf
    {|xmlgl
rule
query
  node $a elem %s
  node $v attr
  attredge $a id $v
construct
  node c copy $a
  root c
end
|}
    tag

let prop_attr =
  QCheck.Test.make ~name:"attribute agreement on random docs" ~count:30
    QCheck.(make Gen.(pair (int_range 1 500) (oneofl tags)))
    (fun (seed, tag) ->
      let db = random_db seed in
      engines_agree_on ~seed (q_attr_select tag) db
        (Some (Printf.sprintf "//%s[@id]" tag)))

(* Construction totality: run_program never raises on well-formed suite
   programs over any workload instance. *)
let prop_construction_total =
  QCheck.Test.make ~name:"suite programs total on random workloads" ~count:15
    QCheck.(make Gen.(int_range 1 300))
    (fun seed ->
      List.for_all
        (fun (e : Gql_workload.Queries.entry) ->
          match e.kind with
          | `Xmlgl p ->
            let db =
              match e.workload with
              | `Bibliography ->
                Gql_core.Gql.of_document (Gql_workload.Gen.bibliography ~seed 10)
              | `Greengrocer ->
                Gql_core.Gql.of_document (Gql_workload.Gen.greengrocer ~seed 10)
              | `People | `Restaurants | `Hyperdocs ->
                Gql_core.Gql.of_document (Gql_workload.Gen.people ~seed 10)
            in
            let (_ : Gql_xml.Tree.element) = Gql_core.Gql.run_xmlgl db (Lazy.force p) in
            true
          | `Wglog _ -> true)
        Gql_workload.Queries.suite)

(* WG-Log determinism: both strategies saturate random hyperdoc graphs to
   identical node/edge counts for the sibling and closure rules. *)
let closure_src =
  "wglog\nrule\n  node a Document\n  node b Document\n  node c Document\n\
  \  edge a link b\n  edge b link c\n  cedge a link c\nend\n"

let prop_fixpoint_strategies =
  QCheck.Test.make ~name:"fixpoint strategies agree on random webs" ~count:10
    QCheck.(make Gen.(int_range 1 300))
    (fun seed ->
      let run strategy =
        let g = Gql_workload.Gen.hyperdocs ~seed ~fanout:2 ~link_factor:1 14 in
        let p = Gql_lang.Wglog_text.parse_program closure_src in
        let _ = Gql_wglog.Eval.run ~strategy g p in
        (Gql_data.Graph.n_nodes g, Gql_data.Graph.n_edges g)
      in
      run `Naive = run `Semi_naive)

(* Matching determinism: same query + same doc = same bindings across
   repeated runs (guards against hidden state in caches). *)
let prop_matching_deterministic =
  QCheck.Test.make ~name:"matching is deterministic" ~count:20
    QCheck.(make Gen.(int_range 1 300))
    (fun seed ->
      let db = random_db seed in
      let p = Gql_core.Gql.parse_xmlgl (q_parent_child "item" "a") in
      let q = (List.hd p.Gql_xmlgl.Ast.rules).Gql_xmlgl.Ast.query in
      Gql_xmlgl.Matching.run db.Gql_core.Gql.graph q
      = Gql_xmlgl.Matching.run db.Gql_core.Gql.graph q)

let () =
  ignore check;
  Alcotest.run "crossengine"
    [
      ( "agreement",
        [
          QCheck_alcotest.to_alcotest prop_parent_child;
          QCheck_alcotest.to_alcotest prop_deep;
          QCheck_alcotest.to_alcotest prop_absent;
          QCheck_alcotest.to_alcotest prop_attr;
        ] );
      ( "totality",
        [
          QCheck_alcotest.to_alcotest prop_construction_total;
          QCheck_alcotest.to_alcotest prop_fixpoint_strategies;
          QCheck_alcotest.to_alcotest prop_matching_deterministic;
        ] );
    ]
