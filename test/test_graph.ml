(* Tests for Gql_graph: digraph operations, classical algorithms
   (properties on random graphs), regular path queries (vs a naive
   enumerator) and the homomorphism matcher. *)

open Gql_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Assertion helpers over the library's adjacency lists and embedding
   search. *)
let has_edge ?label g src dst =
  List.exists
    (fun (d, l) -> d = dst && match label with None -> true | Some l' -> l = l')
    (Digraph.succ g src)

let edges_between g src dst =
  List.filter_map (fun (d, l) -> if d = dst then Some l else None) (Digraph.succ g src)

let all_embeddings ?provider pat g =
  let acc = ref [] in
  Homo.iter_embeddings ?provider pat g ~emit:(fun e -> acc := e :: !acc);
  List.rev !acc

let count_embeddings pat g = List.length (all_embeddings pat g)

(* Small labelled graph builder: nodes carry strings, edges strings. *)
let build nodes edges =
  let g = Digraph.create ~dummy:"" in
  let ids = List.map (fun p -> Digraph.add_node g p) nodes in
  let arr = Array.of_list ids in
  List.iter (fun (s, l, d) -> Digraph.add_edge g ~src:arr.(s) ~dst:arr.(d) l) edges;
  g

(* --- digraph ----------------------------------------------------------- *)

let test_basic () =
  let g = build [ "a"; "b"; "c" ] [ (0, "x", 1); (1, "y", 2); (0, "z", 2) ] in
  check_int "nodes" 3 (Digraph.n_nodes g);
  check_int "edges" 3 (Digraph.n_edges g);
  check_int "out 0" 2 (Digraph.out_degree g 0);
  check_int "in 2" 2 (Digraph.in_degree g 2);
  check "payload" true (Digraph.payload g 1 = "b");
  check "has_edge" true (has_edge g 0 1);
  check "has_edge label" true (has_edge ~label:"x" g 0 1);
  check "no such label" false (has_edge ~label:"q" g 0 1);
  check "edges_between" true (edges_between g 0 2 = [ "z" ])

let test_multigraph () =
  let g = build [ "a"; "b" ] [ (0, "x", 1); (0, "y", 1) ] in
  check_int "two parallel edges" 2 (List.length (edges_between g 0 1))

(* --- algorithms --------------------------------------------------------- *)

let diamond =
  build [ "s"; "l"; "r"; "t" ] [ (0, "", 1); (0, "", 2); (1, "", 3); (2, "", 3) ]

let test_bfs () =
  let order = Support.bfs diamond [ 0 ] in
  check_int "visits all" 4 (List.length order);
  check "starts at source" true (List.hd order = 0);
  check "target last" true (List.nth order 3 = 3);
  check_int "from middle" 2 (List.length (Support.bfs diamond [ 1 ]))

let test_reachable () =
  let r = Support.bfs diamond [ 1 ] in
  check "1 reaches 3" true (List.mem 3 r);
  check "1 not 2" false (List.mem 2 r)

let test_topo () =
  match Algo.topological_sort diamond with
  | None -> Alcotest.fail "diamond is a DAG"
  | Some order ->
    let pos = Array.make 4 0 in
    List.iteri (fun i v -> pos.(v) <- i) order;
    Digraph.iter_edges
      (fun ~src ~dst _ -> check "edge respects order" true (pos.(src) < pos.(dst)))
      diamond

let test_topo_cycle () =
  let cyc = build [ "a"; "b" ] [ (0, "", 1); (1, "", 0) ] in
  check "cycle detected" true (Algo.topological_sort cyc = None);
  check "acyclic check" false (Algo.is_acyclic cyc);
  check "dag check" true (Algo.is_acyclic diamond)

let test_scc () =
  let g =
    build [ "a"; "b"; "c"; "d"; "e" ]
      [ (0, "", 1); (1, "", 0); (1, "", 2); (2, "", 3); (3, "", 2) ]
  in
  let comps = Algo.scc g in
  check_int "three components" 3 (List.length comps);
  let find v = List.find (fun c -> List.mem v c) comps in
  check "a with b" true (List.sort compare (find 0) = [ 0; 1 ]);
  check "c with d" true (List.sort compare (find 2) = [ 2; 3 ]);
  check "e alone" true (find 4 = [ 4 ])

let dag_gen =
  QCheck.Gen.(
    let* n = int_range 2 15 in
    let* edges =
      list_size (int_bound 25)
        (let* a = int_bound (n - 1) in
         let* b = int_bound (n - 1) in
         return (min a b, max a b))
    in
    return (n, List.filter (fun (a, b) -> a <> b) edges))

let prop_topo_on_dags =
  QCheck.Test.make ~name:"topological sort on random DAGs" ~count:200
    (QCheck.make dag_gen)
    (fun (n, edges) ->
      let g =
        build (List.init n string_of_int)
          (List.map (fun (a, b) -> (a, "", b)) edges)
      in
      match Algo.topological_sort g with
      | None -> false
      | Some order ->
        let pos = Array.make n 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        List.for_all (fun (a, b) -> pos.(a) < pos.(b)) edges)

let graph_gen =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* edges =
      list_size (int_bound 14)
        (let* a = int_bound (n - 1) in
         let* b = int_bound (n - 1) in
         let* l = oneofl [ "x"; "y" ] in
         return (a, l, b))
    in
    return (n, edges))

let prop_scc_partition =
  QCheck.Test.make ~name:"scc is a partition" ~count:200 (QCheck.make graph_gen)
    (fun (n, edges) ->
      let g = build (List.init n string_of_int) edges in
      let comps = Algo.scc g in
      let all = List.concat comps in
      List.length all = n && List.sort_uniq compare all = List.init n Fun.id)

(* --- regular paths ------------------------------------------------------ *)

let test_regpath_basic () =
  let g =
    build [ "r"; "a"; "b"; "c" ]
      [ (0, "index", 1); (1, "index", 2); (2, "link", 3) ]
  in
  let index_plus =
    Regpath.compile (fun l e -> l = e) Gql_regex.Syntax.(plus (sym "index"))
  in
  Alcotest.(check (list int)) "index+" [ 1; 2 ] (Regpath.reachable index_plus g 0);
  let any_star =
    Regpath.compile (fun () _ -> true) Gql_regex.Syntax.(star (sym ()))
  in
  Alcotest.(check (list int)) "anything*" [ 0; 1; 2; 3 ]
    (Regpath.reachable any_star g 0);
  let index_then_link =
    Regpath.compile (fun l e -> l = e)
      Gql_regex.Syntax.(seq (plus (sym "index")) (sym "link"))
  in
  Alcotest.(check (list int)) "index+ link" [ 3 ]
    (Regpath.reachable index_then_link g 0);
  check "connects" true (Regpath.connects index_plus g ~src:0 ~dst:2);
  check "not connects" false (Regpath.connects index_plus g ~src:0 ~dst:3)

let test_regpath_cycle () =
  let g = build [ "a"; "b" ] [ (0, "x", 1); (1, "x", 0) ] in
  let xp = Regpath.compile (fun l e -> l = e) Gql_regex.Syntax.(plus (sym "x")) in
  Alcotest.(check (list int)) "cycle closure" [ 0; 1 ] (Regpath.reachable xp g 0)

let re_gen =
  let open QCheck.Gen in
  let sym = oneofl [ "x"; "y" ] in
  let rec gen d =
    if d = 0 then map Gql_regex.Syntax.sym sym
    else
      frequency
        [
          (3, gen 0);
          (2, map2 Gql_regex.Syntax.seq (gen (d - 1)) (gen (d - 1)));
          (2, map2 Gql_regex.Syntax.alt (gen (d - 1)) (gen (d - 1)));
          (1, map Gql_regex.Syntax.star (gen (d - 1)));
          (1, map Gql_regex.Syntax.plus (gen (d - 1)));
        ]
  in
  gen 2

let prop_regpath_vs_naive =
  QCheck.Test.make ~name:"naive path results are regpath subset" ~count:60
    (QCheck.make QCheck.Gen.(pair graph_gen re_gen))
    (fun ((n, edges), re) ->
      let g = build (List.init n string_of_int) edges in
      let rp = Regpath.compile (fun l e -> l = e) re in
      let fast = Regpath.reachable rp g 0 in
      let slow =
        Regpath.reachable_naive (fun l e -> l = e) re g 0 ~max_len:6
      in
      (* the bounded naive search may miss long paths but must never find
         something the product construction missed *)
      List.for_all (fun v -> List.mem v fast) slow)

let prop_regpath_single_sym =
  QCheck.Test.make ~name:"single-symbol path = direct successors" ~count:200
    (QCheck.make graph_gen)
    (fun (n, edges) ->
      let g = build (List.init n string_of_int) edges in
      let rp = Regpath.compile (fun l e -> l = e) (Gql_regex.Syntax.sym "x") in
      let expect =
        List.sort_uniq compare
          (List.filter_map (fun (a, l, b) -> if a = 0 && l = "x" then Some b else None) edges)
      in
      Regpath.reachable rp g 0 = expect)

(* --- homomorphism matcher ------------------------------------------------ *)

let any _ _ = true
let lbl want _ p = p = want

(* Candidate propagation through a provider (navs intersected
   smallest-first, negations as exclusions) must bind the same
   embeddings in the same order as the plain scan — the scan-vs-index
   fuzz oracle's contract, pinned here on a pattern where one node has
   two bound incident edges plus a negated one.  One nav is a
   deliberate superset with [nav_exact = false], so the re-check path
   is exercised too. *)
let test_homo_provider_order () =
  let g =
    build
      [ "a"; "c"; "b"; "b"; "b"; "b" ]
      [ (0, "x", 2); (0, "x", 3); (0, "x", 5); (1, "y", 2); (1, "y", 3);
        (1, "y", 4); (0, "z", 3) ]
  in
  let pat =
    {
      Homo.p_nodes = [| lbl "a"; lbl "c"; lbl "b" |];
      p_edges =
        [ (0, Homo.Direct (fun e -> e = "x"), 2);
          (1, Homo.Direct (fun e -> e = "y"), 2);
          (0, Homo.Negated (fun e -> e = "z"), 2) ];
    }
  in
  let by_label want =
    Iset.of_list
      (Digraph.fold_nodes (fun acc i p -> if p = want then i :: acc else acc) [] g)
  in
  let out_lbl want n =
    Iset.of_list
      (List.filter_map (fun (d, l) -> if l = want then Some d else None)
         (Digraph.succ g n))
  in
  let nav_x =
    (* exact: exactly the x-successors *)
    Some
      { Homo.nav_out = Some (out_lbl "x"); nav_in = None;
        nav_links = Some (fun s d -> Iset.mem (out_lbl "x" s) d);
        nav_exact = true }
  in
  let nav_y_superset =
    (* superset: all successors regardless of label, not exact *)
    Some
      { Homo.nav_out = Some (fun n -> Iset.of_list (List.map fst (Digraph.succ g n)));
        nav_in = None; nav_links = None; nav_exact = false }
  in
  let provider =
    {
      Homo.prov_candidates =
        (fun p -> Some (by_label [| "a"; "c"; "b" |].(p)));
      prov_degree = None;
      prov_nav =
        (fun i -> match i with 0 -> nav_x | 1 -> nav_y_superset | _ -> None);
    }
  in
  let scan = all_embeddings pat g in
  let indexed = all_embeddings ~provider pat g in
  check "non-trivial" true (List.length scan > 0);
  check "same embeddings, same order" true (scan = indexed)

let test_homo_basic () =
  let g = build [ "a"; "b"; "a"; "b"; "c" ] [ (0, "", 1); (2, "", 3); (4, "", 1) ] in
  let pat =
    { Homo.p_nodes = [| lbl "a"; lbl "b" |];
      p_edges = [ (0, Homo.Direct (fun _ -> true), 1) ] }
  in
  check_int "two embeddings" 2 (count_embeddings pat g);
  check "exists" true (Homo.exists pat g);
  let embs = all_embeddings pat g in
  check "bindings correct" true
    (List.for_all
       (fun e -> Digraph.payload g e.(0) = "a" && Digraph.payload g e.(1) = "b")
       embs)

let test_homo_edge_labels () =
  let g = build [ "a"; "b" ] [ (0, "x", 1); (0, "y", 1) ] in
  let pat l =
    { Homo.p_nodes = [| any; any |];
      p_edges = [ (0, Homo.Direct (fun e -> e = l), 1) ] }
  in
  check_int "x edge" 1 (count_embeddings (pat "x") g);
  check_int "z edge" 0 (count_embeddings (pat "z") g)

let test_homo_shared_node_join () =
  let g = build [ "p"; "p"; "c"; "c" ] [ (0, "", 2); (1, "", 2); (1, "", 3) ] in
  let pat =
    { Homo.p_nodes = [| lbl "p"; lbl "p"; lbl "c" |];
      p_edges =
        [ (0, Homo.Direct (fun _ -> true), 2); (1, Homo.Direct (fun _ -> true), 2) ] }
  in
  let embs = all_embeddings pat g in
  (* homomorphisms (not injective): (0,1,2) (1,0,2) (0,0,2) (1,1,2) (1,1,3) *)
  check_int "identity join embeddings" 5 (List.length embs)

let test_homo_negated () =
  let g = build [ "a"; "b"; "a"; "b" ] [ (0, "", 1); (2, "", 1) ] in
  let pat =
    { Homo.p_nodes = [| lbl "a"; lbl "b" |];
      p_edges = [ (0, Homo.Negated (fun _ -> true), 1) ] }
  in
  (* pairs without an edge: (0,3) and (2,3) *)
  check_int "negated pairs" 2 (count_embeddings pat g)

let test_homo_path_edge () =
  let g = build [ "a"; "m"; "b" ] [ (0, "x", 1); (1, "x", 2) ] in
  let rp = Regpath.compile (fun () e -> e = "x") Gql_regex.Syntax.(plus (sym ())) in
  let pat =
    { Homo.p_nodes = [| lbl "a"; lbl "b" |]; p_edges = [ (0, Homo.Path rp, 1) ] }
  in
  check_int "path a=>b" 1 (count_embeddings pat g)

let test_homo_empty_pattern () =
  let g = build [ "a" ] [] in
  let pat = { Homo.p_nodes = [||]; p_edges = [] } in
  check_int "empty pattern one empty embedding" 1 (count_embeddings pat g)

let test_homo_no_candidates () =
  let g = build [ "a" ] [] in
  let pat = { Homo.p_nodes = [| lbl "zz" |]; p_edges = [] } in
  check_int "no candidates" 0 (count_embeddings pat g)

let prop_homo_sound =
  QCheck.Test.make ~name:"homo embeddings satisfy constraints" ~count:150
    (QCheck.make graph_gen)
    (fun (n, edges) ->
      let g = build (List.init n string_of_int) edges in
      let pat =
        { Homo.p_nodes = [| any; any |];
          p_edges = [ (0, Homo.Direct (fun e -> e = "x"), 1) ] }
      in
      List.for_all
        (fun emb ->
          List.exists (fun (d, l) -> d = emb.(1) && l = "x") (Digraph.succ g emb.(0)))
        (all_embeddings pat g))

let prop_homo_complete =
  QCheck.Test.make ~name:"homo finds every x-edge" ~count:150
    (QCheck.make graph_gen)
    (fun (n, edges) ->
      let g = build (List.init n string_of_int) edges in
      let pat =
        { Homo.p_nodes = [| any; any |];
          p_edges = [ (0, Homo.Direct (fun e -> e = "x"), 1) ] }
      in
      let expected =
        List.length
          (List.sort_uniq compare
             (List.filter_map
                (fun (a, l, b) -> if l = "x" then Some (a, b) else None)
                edges))
      in
      count_embeddings pat g = expected)

let () =
  Alcotest.run "gql_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "multigraph" `Quick test_multigraph;
        ] );
      ( "algo",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "topo" `Quick test_topo;
          Alcotest.test_case "topo cycle" `Quick test_topo_cycle;
          Alcotest.test_case "scc" `Quick test_scc;
          QCheck_alcotest.to_alcotest prop_topo_on_dags;
          QCheck_alcotest.to_alcotest prop_scc_partition;
        ] );
      ( "regpath",
        [
          Alcotest.test_case "basic" `Quick test_regpath_basic;
          Alcotest.test_case "cycles" `Quick test_regpath_cycle;
          QCheck_alcotest.to_alcotest prop_regpath_vs_naive;
          QCheck_alcotest.to_alcotest prop_regpath_single_sym;
        ] );
      ( "homo",
        [
          Alcotest.test_case "basic" `Quick test_homo_basic;
          Alcotest.test_case "provider keeps binding order" `Quick
            test_homo_provider_order;
          Alcotest.test_case "edge labels" `Quick test_homo_edge_labels;
          Alcotest.test_case "shared node join" `Quick test_homo_shared_node_join;
          Alcotest.test_case "negated" `Quick test_homo_negated;
          Alcotest.test_case "path edge" `Quick test_homo_path_edge;
          Alcotest.test_case "empty pattern" `Quick test_homo_empty_pattern;
          Alcotest.test_case "no candidates" `Quick test_homo_no_candidates;
          QCheck_alcotest.to_alcotest prop_homo_sound;
          QCheck_alcotest.to_alcotest prop_homo_complete;
        ] );
    ]
