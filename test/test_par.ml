(* Tests for Gql_graph.Par and the domain-parallel evaluation paths:
   the chunked scheduler itself (order, exceptions, budget accounting)
   and the determinism guarantee — every engine must produce results
   byte-identical to its sequential run at any domain count, including
   WG-Log fixpoints whose construction adds nodes mid-round. *)

module Par = Gql_graph.Par
module Graph = Gql_data.Graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- the scheduler ---------------------------------------------------- *)

let test_map_chunks_identity () =
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          let chunks =
            Par.map_chunks ~domains ~n (fun lo hi ->
                List.init (hi - lo) (fun k -> lo + k))
          in
          Alcotest.(check (list int))
            (Printf.sprintf "tiles [0,%d) at %d domains" n domains)
            (List.init n Fun.id) (List.concat chunks))
        [ 0; 1; 2; 5; 37; 100 ])
    [ 1; 2; 3; 8 ]

let test_concat_map_order () =
  let xs = List.init 57 (fun i -> i) in
  let f i = [ i * 2; (i * 2) + 1 ] in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "concat_map at %d domains" domains)
        (List.concat_map f xs)
        (Par.concat_map_chunks ~domains f xs))
    [ 1; 2; 4; 8 ]

exception Boom of int

let test_exception_propagation () =
  (* every chunk raises; the lowest-numbered chunk's exception must be
     the one re-raised, after all domains have joined *)
  match Par.map_chunks ~domains:4 ~n:40 (fun lo _ -> raise (Boom lo)) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom lo -> check_int "lowest failing chunk wins" 0 lo

let test_exception_leaves_scheduler_usable () =
  (match Par.map_chunks ~domains:4 ~n:16 (fun _ _ -> raise Exit) with
  | _ -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  let again =
    Par.map_chunks ~domains:4 ~n:16 (fun lo hi -> hi - lo) |> List.fold_left ( + ) 0
  in
  check_int "next call still tiles the range" 16 again

let test_budget_accounting () =
  let before = Par.auto_domains () in
  check "auto_domains is at least 1" true (before >= 1);
  Par.charged (fun () ->
      check_int "one unit held while charged" (max 1 (before - 1))
        (Par.auto_domains ()));
  check_int "unit refunded afterwards" before (Par.auto_domains ());
  (* explicit fan-out must refund everything it charged *)
  ignore (Par.map_chunks ~domains:8 ~n:64 (fun lo hi -> hi - lo));
  check_int "map_chunks refunds its extra domains" before (Par.auto_domains ())

let test_deadline_reaches_chunks () =
  let before = Par.auto_domains () in
  let t0 = Unix.gettimeofday () in
  (match
     Gql_graph.Deadline.with_deadline (t0 +. 0.02) (fun () ->
         Par.map_chunks ~domains:2 ~n:8 (fun _ _ ->
             (* spin until cancelled; give up after 2 s, so a chunk that
                never sees the deadline fails the test instead of hanging *)
             while Unix.gettimeofday () -. t0 < 2.0 do
               Gql_graph.Deadline.tick ()
             done))
   with
  | _ -> Alcotest.fail "expected Deadline.Exceeded"
  | exception Gql_graph.Deadline.Exceeded -> ());
  check "chunks on every domain stopped at the deadline" true
    (Unix.gettimeofday () -. t0 < 1.0);
  check "caller's deadline restored" true
    (Gql_graph.Deadline.current () = infinity);
  check_int "budget refunded" before (Par.auto_domains ())

let test_nested_call_degrades () =
  (* a chunk body that fans out again must run sequentially, not spawn
     recursively — observable as exactly one inner chunk per outer *)
  let inner_chunks =
    Par.map_chunks ~domains:4 ~n:8 (fun _ _ ->
        List.length (Par.map_chunks ~domains:4 ~n:100 (fun lo hi -> (lo, hi))))
  in
  List.iter (fun c -> check_int "inner call collapsed to one chunk" 1 c)
    inner_chunks

(* --- the persistent pool ----------------------------------------------- *)

let test_pool_reuse () =
  (* a first fan-out may grow the pool; later fan-outs must ride the
     parked workers instead of spawning again *)
  ignore (Par.map_chunks ~domains:4 ~n:64 (fun lo hi -> hi - lo));
  let before = Par.stats () in
  for _ = 1 to 5 do
    ignore (Par.map_chunks ~domains:4 ~n:64 (fun lo hi -> hi - lo))
  done;
  let d = Par.stats_diff ~before (Par.stats ()) in
  check_int "no new workers for a warm pool" 0 d.Par.workers_spawned;
  check_int "five jobs submitted" 5 d.Par.jobs;
  check "chunks were executed" true (d.Par.chunks > 0);
  check_int "no spawn failures" 0 d.Par.spawn_failures

let test_stats_fallback_reasons () =
  let before = Par.stats () in
  (* below-cutoff cost: sequential, no pool traffic *)
  ignore (Par.map_chunks ~cost:1 ~domains:4 ~n:64 (fun lo hi -> hi - lo));
  (* solo: explicit 1 domain *)
  ignore (Par.map_chunks ~domains:1 ~n:64 (fun lo hi -> hi - lo));
  let d = Par.stats_diff ~before (Par.stats ()) in
  check_int "cutoff fallback counted" 1 d.Par.seq_below_cutoff;
  check_int "solo fallback counted" 1 d.Par.seq_solo;
  check_int "no jobs reached the pool" 0 d.Par.jobs;
  (* nested: one inner call per outer chunk, counted wherever it ran *)
  let before = Par.stats () in
  let inner =
    Par.map_chunks ~domains:4 ~n:8 (fun _ _ ->
        ignore (Par.map_chunks ~domains:4 ~n:32 (fun lo hi -> hi - lo)))
  in
  let d = Par.stats_diff ~before (Par.stats ()) in
  check_int "every nested call degraded" (List.length inner) d.Par.seq_nested

let test_burst_budget () =
  (* eight concurrent clients, each charging one budget unit around its
     own fan-out (the serve pool's shape): everything must be refunded,
     and the scheduler must still answer correctly under contention *)
  let before = Par.auto_domains () in
  let clients =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            Par.charged (fun () ->
                Par.map_chunks ~domains:2 ~n:128 (fun lo hi -> hi - lo)
                |> List.fold_left ( + ) 0)))
  in
  List.iter
    (fun c -> check_int "client saw the whole range" 128 (Domain.join c))
    clients;
  check_int "burst refunded every unit" before (Par.auto_domains ())

(* --- determinism across engines --------------------------------------- *)

let bindings_at domains graph q index =
  List.map Array.to_list (Gql_xmlgl.Matching.run ~index ~domains graph q)

let test_xmlgl_determinism () =
  List.iter
    (fun (name, doc, src) ->
      let graph = fst (Gql_data.Codec.encode doc) in
      let index = Gql_data.Index.build graph in
      let q =
        (List.hd (Gql_core.Gql.parse_xmlgl src).Gql_xmlgl.Ast.rules)
          .Gql_xmlgl.Ast.query
      in
      let seq = bindings_at 1 graph q index in
      check (name ^ " finds embeddings") true (seq <> []);
      List.iter
        (fun domains ->
          Alcotest.(check (list (list int)))
            (Printf.sprintf "%s identical at %d domains" name domains)
            seq
            (bindings_at domains graph q index))
        [ 2; 8 ])
    [ ("q2-select", Gql_workload.Gen.bibliography ~seed:7 120,
       Gql_workload.Queries.q2_src);
      ("q4-join", Gql_workload.Gen.greengrocer ~seed:8 150,
       Gql_workload.Queries.q4_src) ]

let test_algebra_determinism () =
  let graph =
    fst (Gql_data.Codec.encode (Gql_workload.Gen.greengrocer ~seed:9 150))
  in
  let q =
    (List.hd (Gql_core.Gql.parse_xmlgl Gql_workload.Queries.q4_src)
       .Gql_xmlgl.Ast.rules)
      .Gql_xmlgl.Ast.query
  in
  let at domains =
    List.map Array.to_list (Gql_algebra.Exec.run_xmlgl ~domains graph q)
  in
  let seq = at 1 in
  check "algebra finds embeddings" true (seq <> []);
  List.iter
    (fun domains ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "algebra identical at %d domains" domains)
        seq (at domains))
    [ 2; 8 ]

let test_wglog_goal_determinism () =
  let g = Gql_workload.Gen.restaurants ~seed:11 ~menu_fraction:0.6 120 in
  let p =
    Gql_lang.Wglog_text.parse_program ~schema:Gql_wglog.Schema.restaurant_schema
      Gql_workload.Queries.q10_src
  in
  let at domains =
    List.concat_map
      (fun r ->
        List.map Array.to_list (Gql_wglog.Eval.goal ~domains g r))
      p.Gql_wglog.Ast.rules
  in
  let seq = at 1 in
  check "goal finds embeddings" true (seq <> []);
  List.iter
    (fun domains ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "goal identical at %d domains" domains)
        seq (at domains))
    [ 2; 8 ]

(* Every observable fact about a graph, in deterministic order. *)
let fingerprint (data : Graph.t) =
  let nodes =
    List.rev
      (Gql_graph.Digraph.fold_nodes
         (fun acc i kind -> (i, kind) :: acc)
         [] (Graph.digraph data))
  in
  let edges = ref [] in
  Gql_graph.Digraph.iter_edges
    (fun ~src ~dst (e : Graph.edge) -> edges := (src, dst, e) :: !edges)
    (Graph.digraph data);
  (nodes, List.rev !edges)

let fixpoint_at base prog domains =
  let g = Graph.copy base in
  let stats = Gql_wglog.Eval.run ~domains g prog in
  ( stats.Gql_wglog.Eval.rounds,
    stats.Gql_wglog.Eval.embeddings_found,
    stats.Gql_wglog.Eval.nodes_added,
    stats.Gql_wglog.Eval.edges_added,
    fingerprint g )

let test_wglog_fixpoint_determinism () =
  List.iter
    (fun (name, base, prog) ->
      let (_, _, _, added, _) as seq = fixpoint_at base prog 1 in
      check (name ^ " derives edges") true (added > 0);
      List.iter
        (fun domains ->
          check
            (Printf.sprintf "%s fixpoint identical at %d domains" name domains)
            true
            (fixpoint_at base prog domains = seq))
        [ 2; 8 ])
    [ ("q10-restaurants",
       Gql_workload.Gen.restaurants ~seed:12 ~menu_fraction:0.6 150,
       Gql_lang.Wglog_text.parse_program
         ~schema:Gql_wglog.Schema.restaurant_schema Gql_workload.Queries.q10_src);
      ("q12-hyperdocs",
       Gql_workload.Gen.hyperdocs ~seed:13 ~fanout:3 ~link_factor:1 60,
       Gql_lang.Wglog_text.parse_program
         ~schema:Gql_wglog.Schema.hyperdoc_schema Gql_workload.Queries.q12_src) ]

let test_wglog_parallel_round_adds_nodes () =
  (* q10's construction adds a rest-list *node* plus member edges; the
     parallel rounds complete the previous delta across domains while
     construction stays sequential, so no generation tag may be lost or
     duplicated and the node count must match exactly *)
  let base = Gql_workload.Gen.restaurants ~seed:14 ~menu_fraction:0.6 150 in
  let prog =
    Gql_lang.Wglog_text.parse_program ~schema:Gql_wglog.Schema.restaurant_schema
      Gql_workload.Queries.q10_src
  in
  let run domains =
    let g = Graph.copy base in
    let stats = Gql_wglog.Eval.run ~domains g prog in
    let edges = ref [] in
    Gql_graph.Digraph.iter_edges
      (fun ~src ~dst (e : Graph.edge) ->
        edges := (src, dst, e.Graph.name, e.Graph.gen) :: !edges)
      (Graph.digraph g);
    (stats.Gql_wglog.Eval.nodes_added, Graph.n_nodes g,
     List.sort compare !edges)
  in
  let (seq_added, seq_nodes, seq_edges) = run 1 in
  check "construction adds nodes" true (seq_added > 0);
  List.iter
    (fun domains ->
      let (par_added, par_nodes, par_edges) = run domains in
      check_int
        (Printf.sprintf "nodes_added matches at %d domains" domains)
        seq_added par_added;
      check_int
        (Printf.sprintf "node count matches at %d domains" domains)
        seq_nodes par_nodes;
      check
        (Printf.sprintf "sorted (src,dst,name,gen) edges match at %d domains"
           domains)
        true
        (par_edges = seq_edges))
    [ 2; 4; 8 ]

(* --- the large fixture ------------------------------------------------- *)

let test_million_node_identity () =
  (* a >= 1M-node graph: big enough that the cost estimate clears the
     default cutoff, so 2- and 8-domain runs really go through the pool
     — and must still enumerate byte-identically to sequential *)
  let g = Gql_workload.Gen.wide_graph ~seed:31 ~hubs:256 1_000_000 in
  check "fixture is >= 1M nodes" true (Graph.n_nodes g >= 1_000_000);
  let rule =
    (Gql_lang.Wglog_text.parse_program ~schema:Gql_wglog.Schema.scale_schema
       Gql_workload.Queries.q13_src)
      .Gql_wglog.Ast.rules
    |> List.hd
  in
  let at domains = Gql_wglog.Eval.goal ~domains g rule in
  let seq = at 1 in
  check "sequential run finds the million embeddings" true
    (List.length seq >= 1_000_000);
  let before = Par.stats () in
  List.iter
    (fun domains ->
      check
        (Printf.sprintf "identical at %d domains" domains)
        true
        (at domains = seq))
    [ 2; 8 ];
  let d = Par.stats_diff ~before (Par.stats ()) in
  check "parallel runs actually used the pool" true (d.Par.jobs >= 2)

let () =
  Alcotest.run "par"
    [
      ( "scheduler",
        [
          Alcotest.test_case "map_chunks tiles in order" `Quick
            test_map_chunks_identity;
          Alcotest.test_case "concat_map preserves order" `Quick
            test_concat_map_order;
          Alcotest.test_case "lowest chunk exception wins" `Quick
            test_exception_propagation;
          Alcotest.test_case "scheduler survives exceptions" `Quick
            test_exception_leaves_scheduler_usable;
          Alcotest.test_case "budget charge and refund" `Quick
            test_budget_accounting;
          Alcotest.test_case "deadline reaches pool chunks" `Quick
            test_deadline_reaches_chunks;
          Alcotest.test_case "nested call degrades to sequential" `Quick
            test_nested_call_degrades;
        ] );
      ( "pool",
        [
          Alcotest.test_case "workers are reused across jobs" `Quick
            test_pool_reuse;
          Alcotest.test_case "fallback reasons are counted" `Quick
            test_stats_fallback_reasons;
          Alcotest.test_case "8-client burst refunds the budget" `Quick
            test_burst_budget;
          Alcotest.test_case "million-node fixture 1/2/8 domains" `Slow
            test_million_node_identity;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "xml-gl matcher 1/2/8 domains" `Quick
            test_xmlgl_determinism;
          Alcotest.test_case "algebra executor 1/2/8 domains" `Quick
            test_algebra_determinism;
          Alcotest.test_case "wg-log goal 1/2/8 domains" `Quick
            test_wglog_goal_determinism;
          Alcotest.test_case "wg-log fixpoint 1/2/8 domains" `Quick
            test_wglog_fixpoint_determinism;
          Alcotest.test_case "parallel rounds with node construction" `Quick
            test_wglog_parallel_round_adds_nodes;
        ] );
    ]
