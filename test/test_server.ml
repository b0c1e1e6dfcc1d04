(* The query service, proven against direct evaluation.

   The load-bearing property: a RUN response body must be *byte
   identical* to what direct `Gql_xmlgl.Engine` / `Gql_wglog.Eval`
   evaluation over the same snapshot produces — cold, cached, over a
   socket, and under concurrent clients on a multi-domain worker pool.
   Everything else (protocol framing, caches, metrics, deadlines) is
   exercised around that invariant. *)

open Gql_server

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- the served corpus -------------------------------------------------- *)

let doc_of = function
  | "bibliography" -> Gql_workload.Gen.bibliography ~seed:81 40
  | "people" -> Gql_workload.Gen.people ~seed:82 60
  | "greengrocer" -> Gql_workload.Gen.greengrocer ~seed:83 80
  | d -> failwith ("no test doc " ^ d)

let restaurant_graph () = Gql_workload.Gen.restaurants ~seed:84 50

let new_server ?(workers = 4) ?(result_cache = 256) ?default_deadline_ms () =
  let config =
    {
      Server.default_config with
      workers = Some workers;
      result_cache;
      default_deadline_ms;
    }
  in
  let server = Server.create ~config () in
  let reg = Server.registry server in
  List.iter
    (fun name ->
      match
        Registry.load_xml reg ~name
          (Gql_xml.Printer.to_string (doc_of name))
      with
      | Ok _ -> ()
      | Error m -> failwith m)
    [ "bibliography"; "people"; "greengrocer" ];
  ignore (Registry.add_graph reg ~name:"restaurants" (restaurant_graph ()));
  server

(** What direct evaluation says for one suite query — computed fresh
    from the server's own snapshot so both sides see one graph. *)
let direct_body server (q : Gql_workload.Queries.server_query) : string =
  let snap = Option.get (Registry.find (Server.registry server) q.doc) in
  let graph = snap.Registry.db.Gql_core.Gql.graph in
  match Gql_core.Gql.language_of_source q.source with
  | `Xmlgl ->
    let p = Gql_core.Gql.parse_xmlgl q.source in
    Gql_core.Gql.to_xml_string
      (Gql_xmlgl.Engine.run_program ~index:snap.Registry.index graph p)
  | `Wglog ->
    let schema =
      match q.schema with
      | Some "restaurant" -> Some Gql_wglog.Schema.restaurant_schema
      | Some "hyperdoc" -> Some Gql_wglog.Schema.hyperdoc_schema
      | _ -> None
    in
    let p = Gql_core.Gql.parse_wglog ?schema q.source in
    Server.wglog_stats_line (Gql_wglog.Eval.run (Registry.fork snap) p)
  | `Match ->
    let q = Gql_core.Gql.parse_match q.source in
    fst (Gql_match.Eval.run ~index:snap.Registry.index graph q)
  | `Unknown -> failwith "unknown language"

let run_payload (q : Gql_workload.Queries.server_query) =
  Protocol.render_request
    (Protocol.Run
       { doc = q.doc; query = `Source q.source; schema = q.schema; deadline_ms = None })

(* --- language sniffing (the satellite fix) ------------------------------ *)

let test_language_of () =
  let lang s = Gql_core.Gql.language_of_source s in
  check_bool "lowercase wglog" true (lang "wglog\nrule\n" = `Wglog);
  check_bool "uppercase WGLOG" true (lang "WGLOG\nrule\n" = `Wglog);
  check_bool "mixed case XmlGl" true (lang "XmlGl\nrule\n" = `Xmlgl);
  check_bool "wglogx is not wglog" true (lang "wglogx\nrule\n" = `Unknown);
  check_bool "xmlgl2 is not xmlgl" true (lang "xmlgl2\n" = `Unknown);
  check_bool "comment lines skipped" true (lang "# note\n\nxmlgl\n" = `Xmlgl);
  check_bool "header args allowed" true (lang "xmlgl result r\n" = `Xmlgl);
  check_bool "tab separated" true (lang "wglog\tstrict\n" = `Wglog);
  check_bool "empty" true (lang "" = `Unknown)

(* --- graph copy --------------------------------------------------------- *)

let test_graph_copy_isolated () =
  let g = restaurant_graph () in
  let n0 = Gql_data.Graph.n_nodes g and e0 = Gql_data.Graph.n_edges g in
  let copy = Gql_data.Graph.copy g in
  let p =
    Gql_core.Gql.parse_wglog ~schema:Gql_wglog.Schema.restaurant_schema
      Gql_workload.Queries.q10_src
  in
  let stats = Gql_wglog.Eval.run copy p in
  check_bool "fixpoint derived something" true (stats.Gql_wglog.Eval.edges_added > 0);
  check_int "original nodes untouched" n0 (Gql_data.Graph.n_nodes g);
  check_int "original edges untouched" e0 (Gql_data.Graph.n_edges g);
  (* a second fork sees the pristine graph: byte-identical stats *)
  let stats' = Gql_wglog.Eval.run (Gql_data.Graph.copy g) p in
  check "fork determinism" (Server.wglog_stats_line stats)
    (Server.wglog_stats_line stats')

(* --- metrics histogram -------------------------------------------------- *)

let test_histogram_quantiles () =
  let h = Metrics.histogram () in
  for us = 1 to 1000 do
    Metrics.observe h ~us
  done;
  let p50 = Metrics.quantile h 0.50 in
  let p99 = Metrics.quantile h 0.99 in
  (* log-linear buckets promise <= 25% relative error *)
  check_bool "p50 near 500" true (p50 >= 500 && p50 <= 640);
  check_bool "p99 near 990" true (p99 >= 990 && p99 <= 1300);
  check_bool "monotone" true (p50 <= p99)

(* --- result cache LRU --------------------------------------------------- *)

let key doc version qhash = { Rcache.doc; version; qhash; kind = "run" }

let test_rcache_lru () =
  let c = Rcache.create ~capacity:2 () in
  Rcache.add c (key "d" 1 "a") ~info:"" "A";
  Rcache.add c (key "d" 1 "b") ~info:"" "B";
  ignore (Rcache.find c (key "d" 1 "a"));
  (* a is now MRU *)
  Rcache.add c (key "d" 1 "c") ~info:"" "C";
  (* b was LRU: evicted *)
  check_bool "a survives" true (Rcache.find c (key "d" 1 "a") <> None);
  check_bool "b evicted" true (Rcache.find c (key "d" 1 "b") = None);
  check_bool "c present" true (Rcache.find c (key "d" 1 "c") <> None);
  Rcache.purge_doc c "d";
  check_int "purge empties the doc" 0 (Rcache.length c)

let test_rcache_version_isolation () =
  let c = Rcache.create ~capacity:8 () in
  Rcache.add c (key "d" 1 "q") ~info:"" "old";
  check_bool "other version misses" true (Rcache.find c (key "d" 2 "q") = None)

(* --- prepared-query cache ----------------------------------------------- *)

let test_qcache () =
  let c = Qcache.create ~capacity:4 () in
  let src = Gql_workload.Queries.q1_src in
  (match Qcache.intern c ~schema:None src with
  | Ok (_, hit) -> check_bool "first intern is a miss" false hit
  | Error m -> Alcotest.fail m);
  (match Qcache.intern c ~schema:None src with
  | Ok (_, hit) -> check_bool "second intern hits" true hit
  | Error m -> Alcotest.fail m);
  (match Qcache.prepare c ~name:"q1" ~schema:None src with
  | Ok (entry, hit) ->
    check_bool "prepare of known source hits" true hit;
    check_bool "language detected" true (entry.Qcache.lang = `Xmlgl)
  | Error m -> Alcotest.fail m);
  (match Qcache.find_named c "q1" with
  | Ok (_, hit) -> check_bool "named lookup hits" true hit
  | Error m -> Alcotest.fail m);
  check_bool "unknown name errors" true
    (match Qcache.find_named c "nope" with Error _ -> true | Ok _ -> false);
  check_bool "parse errors surface" true
    (match Qcache.intern c ~schema:None "xmlgl\nrule\nsyntax error" with
    | Error _ -> true
    | Ok _ -> false);
  check_bool "bad schema tag errors" true
    (match Qcache.intern c ~schema:(Some "nope") Gql_workload.Queries.q10_src with
    | Error _ -> true
    | Ok _ -> false)

let test_qcache_reprepare_no_double_enqueue () =
  (* FIFO accounting: re-PREPAREing text the cache already holds must
     not enqueue its hash again — with capacity 3, preparing the same
     source capacity+1 times may evict nothing, and the other resident
     entries must still hit afterwards *)
  let capacity = 3 in
  let c = Qcache.create ~capacity () in
  let resident = [ Gql_workload.Queries.q2_src; Gql_workload.Queries.q3_src ] in
  List.iter
    (fun src ->
      match Qcache.intern c ~schema:None src with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    resident;
  for i = 1 to capacity + 1 do
    match Qcache.prepare c ~name:"q1" ~schema:None Gql_workload.Queries.q1_src with
    | Ok (_, hit) -> check_bool "only the first prepare misses" (i > 1) hit
    | Error m -> Alcotest.fail m
  done;
  check_int "fifo holds one slot per distinct parse" 3
    (Queue.length c.Qcache.fifo);
  List.iter
    (fun src ->
      match Qcache.intern c ~schema:None src with
      | Ok (_, hit) -> check_bool "resident entry was not evicted" true hit
      | Error m -> Alcotest.fail m)
    resident

(* --- in-process byte identity ------------------------------------------- *)

let test_inprocess_byte_identity () =
  let server = new_server () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      List.iter
        (fun (q : Gql_workload.Queries.server_query) ->
          let expected = direct_body server q in
          (* cold *)
          (match Protocol.parse_response (Server.handle_payload server (run_payload q)) with
          | Protocol.Ok_ { body; _ } -> check (q.sq_name ^ " cold") expected body
          | r -> Alcotest.failf "%s: %s" q.sq_name (Protocol.render_response r));
          (* cached: still byte-identical *)
          match Protocol.parse_response (Server.handle_payload server (run_payload q)) with
          | Protocol.Ok_ { info; body } ->
            check (q.sq_name ^ " cached") expected body;
            check_bool (q.sq_name ^ " hit the result cache") true
              (contains ~needle:" cached" info)
          | r -> Alcotest.failf "%s: %s" q.sq_name (Protocol.render_response r))
        Gql_workload.Queries.server_suite)

let test_malformed_programs_yield_err () =
  (* programs that parse but fail the semantic checks used to raise
     straight through handle_payload (killing the worker domain serving
     the connection); they must come back as framed ERRs, and the
     server must keep answering afterwards *)
  let server = new_server ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let send req =
        Protocol.parse_response
          (Server.handle_payload server (Protocol.render_request req))
      in
      let run source =
        send
          (Protocol.Run
             { doc = "people"; query = `Source source; schema = None;
               deadline_ms = None })
      in
      let rootless =
        "xmlgl\nresult result\nrule\nquery\n  node $q0 elem PERSON\n\
         construct\n  node c0 new out\nend\n"
      in
      let cyclic =
        "xmlgl\nresult result\nrule\nquery\n  node $q0 elem PERSON\n\
         construct\n  node c0 new out\n  node c1 new inner\n  root c0\n\
         \  edge c0 c1\n  edge c1 c0\nend\n"
      in
      let collect_query_edge =
        "wglog\nrule\n  node n0 PERSON\n  cnode n1 derived\n\
         \  edge n0 id n1\nend\n"
      in
      List.iter
        (fun (name, src) ->
          match run src with
          | Protocol.Err msg ->
            check_bool (name ^ " reports a typed invalid-query error") true
              (contains ~needle:"invalid query" msg)
          | r ->
            Alcotest.failf "%s: expected ERR, got %s" name
              (Protocol.render_response r))
        [ ("rootless construction", rootless); ("cyclic construction", cyclic);
          ("collect query edge", collect_query_edge) ];
      match send Protocol.Ping with
      | Protocol.Ok_ _ -> ()
      | r ->
        Alcotest.failf "server stopped answering: %s"
          (Protocol.render_response r))

(* --- socket byte identity ----------------------------------------------- *)

let with_socket_server ?workers ?result_cache ?default_deadline_ms f =
  let server = new_server ?workers ?result_cache ?default_deadline_ms () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gql-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let _ = Server.listen server (Unix.ADDR_UNIX path) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f server path)

let test_socket_byte_identity () =
  with_socket_server (fun server path ->
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          List.iter
            (fun (q : Gql_workload.Queries.server_query) ->
              let expected = direct_body server q in
              match Client.run c ~doc:q.doc ?schema:q.schema (`Source q.source) with
              | Ok (_, body) -> check (q.sq_name ^ " over socket") expected body
              | Error m -> Alcotest.failf "%s: %s" q.sq_name m)
            Gql_workload.Queries.server_suite))

(* A malformed /regex/ literal answers the front end's parse message, not
   an internal error, and the connection keeps serving. *)
let test_bad_regex_err () =
  with_socket_server (fun server path ->
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let q1 =
            List.find
              (fun (q : Gql_workload.Queries.server_query) -> q.sq_name = "Q1")
              Gql_workload.Queries.server_suite
          in
          List.iter
            (fun src ->
              (match Client.run c ~doc:"bibliography" (`Source src) with
              | Error msg ->
                check_bool "parse message" true (contains ~needle:"bad /regex/" msg);
                check_bool "not internal" false
                  (contains ~needle:"internal error" msg)
              | Ok _ -> Alcotest.failf "malformed regex accepted: %s" src);
              match Client.run c ~doc:q1.doc (`Source q1.source) with
              | Ok (_, body) -> check "next request" (direct_body server q1) body
              | Error m -> Alcotest.failf "next request failed: %s" m)
            [
              "xmlgl\nresult r\nrule\nquery\n  node $c content where self ~ /(Van/\n\
               construct\n  node c copy $c\n  root c\nend\n";
              "xmlgl\nresult r\nrule\nquery\n  node $b elem /(B/\n\
               construct\n  node c copy $b\n  root c\nend\n";
              "wglog\nrule\n  node p PERSON\n  value v where /(x/\n\
               \  edge p name v\n  cedge p odd p\nend\n";
            ]))

(* --- prepared queries over the wire -------------------------------------- *)

let test_prepare_and_run () =
  with_socket_server (fun server path ->
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let q =
            List.find
              (fun (q : Gql_workload.Queries.server_query) -> q.sq_name = "Q2")
              Gql_workload.Queries.server_suite
          in
          (match Client.prepare c ~name:"expensive" q.source with
          | Ok (info, _) ->
            check_bool "prepare reports lang" true
              (contains ~needle:"lang=xmlgl" info)
          | Error m -> Alcotest.fail m);
          match Client.run c ~doc:q.doc (`Named "expensive") with
          | Ok (_, body) -> check "named run" (direct_body server q) body
          | Error m -> Alcotest.fail m))

(* --- stats / metrics / errors / deadlines -------------------------------- *)

let test_stats_metrics_errors () =
  with_socket_server (fun _server path ->
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.ping c with
          | Ok (info, _) -> check "ping" "pong" info
          | Error m -> Alcotest.fail m);
          (match Client.stats c ~doc:"bibliography" with
          | Ok (_, body) ->
            check_bool "stats mentions nodes" true
              (List.mem_assoc "nodes" (Metrics.parse_body body))
          | Error m -> Alcotest.fail m);
          check_bool "unknown doc errors" true
            (Result.is_error (Client.stats c ~doc:"missing"));
          check_bool "bad source errors" true
            (Result.is_error (Client.run c ~doc:"bibliography" (`Source "nonsense")));
          (* deadline 0: always overdue -> graceful TIMEOUT, socket stays up *)
          (match
             Client.run c ~doc:"bibliography" ~deadline_ms:0.0
               (`Source Gql_workload.Queries.q1_src)
           with
          | Error m ->
            check_bool "timeout reported" true
              (String.length m >= 7 && String.sub m 0 7 = "timeout")
          | Ok _ -> Alcotest.fail "deadline=0 must time out");
          match Client.metrics c with
          | Ok (_, body) ->
            let kv = Metrics.parse_body body in
            check_bool "requests counted" true
              (int_of_string (List.assoc "requests" kv) >= 4);
            check_bool "timeout counted" true
              (int_of_string (List.assoc "timeouts" kv) >= 1);
            (* the Par scheduler's slice rides along *)
            check_bool "par stats exported" true
              (List.mem_assoc "par_jobs" kv
              && List.mem_assoc "par_seq_below_cutoff" kv
              && List.mem_assoc "par_cutoff" kv);
            (* ... and so do the path-engine counters *)
            check_bool "path stats exported" true
              (List.mem_assoc "path_compiles" kv
              && List.mem_assoc "path_specialisations" kv
              && List.mem_assoc "path_searches" kv
              && List.mem_assoc "path_memo_hits" kv
              && List.mem_assoc "path_memo_misses" kv
              && List.mem_assoc "path_frontier_peak" kv
              && List.mem_assoc "path_scratch_reuses" kv);
            (* ... and the snapshot store's *)
            check_bool "snapshot stats exported" true
              (List.mem_assoc "snapshot_saves" kv
              && List.mem_assoc "snapshot_loads" kv
              && List.mem_assoc "snapshot_save_ms" kv
              && List.mem_assoc "snapshot_load_ms" kv
              && List.mem_assoc "snapshot_bytes" kv)
          | Error m -> Alcotest.fail m))

(* --- plan cache ----------------------------------------------------------- *)

let test_plan_cache_counters () =
  (* result cache off, so the second identical RUN actually re-evaluates
     — but planning must be skipped: one plan-cache miss, then hits. *)
  with_socket_server ~result_cache:0 (fun _server path ->
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let src = Gql_workload.Queries.m1_src in
          let run () =
            match Client.run c ~doc:"bibliography" (`Source src) with
            | Ok (_, body) -> body
            | Error m -> Alcotest.fail m
          in
          let first = run () in
          check "identical bodies from cached plan" first (run ());
          match Client.metrics c with
          | Ok (_, body) ->
            let kv = Metrics.parse_body body in
            check_bool "plan cache missed on first run" true
              (int_of_string (List.assoc "plan_cache_misses" kv) >= 1);
            check_bool "plan cache hit on second run" true
              (int_of_string (List.assoc "plan_cache_hits" kv) >= 1)
          | Error m -> Alcotest.fail m))

(* --- snapshot versioning over the wire ------------------------------------ *)

let test_reload_invalidates () =
  with_socket_server (fun server path ->
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let q1 = Gql_workload.Queries.q1_src in
          let before =
            match Client.run c ~doc:"bibliography" (`Source q1) with
            | Ok (_, body) -> body
            | Error m -> Alcotest.fail m
          in
          (* re-LOAD a *different* bibliography under the same name *)
          let xml =
            Gql_xml.Printer.to_string (Gql_workload.Gen.bibliography ~seed:999 10)
          in
          (match Client.load c ~doc:"bibliography" xml with
          | Ok (info, _) ->
            check_bool "version bumped" true
              (let kv =
                 List.filter_map
                   (fun t ->
                     match String.index_opt t '=' with
                     | Some i ->
                       Some
                         ( String.sub t 0 i,
                           String.sub t (i + 1) (String.length t - i - 1) )
                     | None -> None)
                   (String.split_on_char ' ' info)
               in
               List.assoc "version" kv = "2")
          | Error m -> Alcotest.fail m);
          let after =
            match Client.run c ~doc:"bibliography" (`Source q1) with
            | Ok (_, body) -> body
            | Error m -> Alcotest.fail m
          in
          check_bool "stale result not replayed" true (before <> after);
          let q =
            List.find
              (fun (q : Gql_workload.Queries.server_query) -> q.sq_name = "Q1")
              Gql_workload.Queries.server_suite
          in
          check "fresh snapshot served" (direct_body server q) after))

(* --- concurrent determinism (the 4-domain stress case) -------------------- *)

let test_concurrent_determinism () =
  with_socket_server ~workers:4 (fun server path ->
      (* expected bodies from single-threaded direct evaluation *)
      let expected =
        List.map
          (fun (q : Gql_workload.Queries.server_query) ->
            (q.sq_name, direct_body server q))
          Gql_workload.Queries.server_suite
      in
      let n_threads = 8 and per_thread = 30 in
      let failures = ref [] in
      let mu = Mutex.create () in
      let client_thread k () =
        let mix = Gql_workload.Queries.server_mix ~seed:(100 + k) per_thread in
        let c = Client.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            List.iter
              (fun (q : Gql_workload.Queries.server_query) ->
                let want = List.assoc q.sq_name expected in
                match Client.run c ~doc:q.doc ?schema:q.schema (`Source q.source) with
                | Ok (_, body) when body = want -> ()
                | Ok _ ->
                  Mutex.lock mu;
                  failures := Printf.sprintf "thread %d: %s diverged" k q.sq_name :: !failures;
                  Mutex.unlock mu
                | Error m ->
                  Mutex.lock mu;
                  failures := Printf.sprintf "thread %d: %s: %s" k q.sq_name m :: !failures;
                  Mutex.unlock mu)
              mix)
      in
      let threads = List.init n_threads (fun k -> Thread.create (client_thread k) ()) in
      List.iter Thread.join threads;
      (match !failures with
      | [] -> ()
      | fs -> Alcotest.fail (String.concat "; " fs));
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.metrics c with
          | Ok (_, body) ->
            let kv = Metrics.parse_body body in
            check_bool "all requests served" true
              (int_of_string (List.assoc "requests" kv) >= n_threads * per_thread)
          | Error m -> Alcotest.fail m))

(* --- copy-on-write WG-Log fixpoints ----------------------------------------- *)

(* Every WG-Log program of the workload on its own fixture (the scale
   fixtures at 2k nodes): (query, doc, schema tag, source). *)
let wglog_cases =
  let open Gql_workload.Queries in
  [ ("Q10", "restaurants", Some "restaurant", q10_src);
    ("Q11", "hyperdocs", Some "hyperdoc", q11_src);
    ("Q12", "hyperdocs", Some "hyperdoc", q12_src);
    ("Q13", "wide", None, q13_src);
    ("Q14", "deep", None, q14_src);
    ("Q15", "skewed", None, q15_src) ]

(* A MATCH per fixture over the labels the constructing programs derive,
   so a derived node or edge leaking into the snapshot changes it. *)
let probe_of = function
  | "restaurants" ->
    "MATCH (l:rest-list)-[:member]->(r:Restaurant)\nRETURN l, r\n"
  | "hyperdocs" ->
    "MATCH (a:Document)-[:sibling]->(b:Document)\nRETURN a, b\n"
  | "wide" -> "MATCH (h:Hub)-[:rel]->(i:Item)\nRETURN h, i\n"
  | "deep" -> "MATCH (h:Head)-[:next]->(c:Cell)\nRETURN h, c\n"
  | _ -> "MATCH (g:Group)-[:member]->(m:Member)\nRETURN g, m\n"

let add_wglog_fixtures server =
  let reg = Server.registry server in
  List.iter
    (fun (name, g) -> ignore (Registry.add_graph reg ~name g))
    [ ("hyperdocs", Gql_workload.Gen.hyperdocs ~seed:85 300);
      ("wide", Gql_workload.Gen.wide_graph ~hubs:16 2000);
      ("deep", Gql_workload.Gen.deep_graph ~chains:32 2000);
      ("skewed", Gql_workload.Gen.skewed_graph ~groups:16 2000) ]

let send server req =
  Protocol.parse_response
    (Server.handle_payload server (Protocol.render_request req))

let run_body server ~doc ?schema source =
  match
    send server
      (Protocol.Run { doc; query = `Source source; schema; deadline_ms = None })
  with
  | Protocol.Ok_ { body; _ } -> body
  | r -> Alcotest.failf "RUN on %s: %s" doc (Protocol.render_response r)

(* The reference answer: the fixpoint on an eager fork of the snapshot. *)
let fork_body server ~doc ?schema source =
  let snap = Option.get (Registry.find (Server.registry server) doc) in
  let schema = Result.get_ok (Qcache.schema_of_tag schema) in
  Server.wglog_stats_line
    (Gql_wglog.Eval.run (Registry.fork snap)
       (Gql_core.Gql.parse_wglog ?schema source))

(* (graph copies, fixpoint index builds) as the server's METRICS reports them *)
let wglog_counters server =
  match send server Protocol.Metrics with
  | Protocol.Ok_ { body; _ } ->
    let kv = Metrics.parse_body body in
    let get k = int_of_string (List.assoc k kv) in
    (get "wglog_graph_copies", get "wglog_index_builds")
  | r -> Alcotest.failf "METRICS: %s" (Protocol.render_response r)

let graph_size server doc =
  let snap = Option.get (Registry.find (Server.registry server) doc) in
  let g = snap.Registry.db.Gql_core.Gql.graph in
  (Gql_data.Graph.n_nodes g, Gql_data.Graph.n_edges g)

let test_wglog_served_uncached () =
  let server = new_server ~workers:1 ~result_cache:0 () in
  add_wglog_fixtures server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let docs =
        List.sort_uniq compare (List.map (fun (_, d, _, _) -> d) wglog_cases)
      in
      let state doc = (graph_size server doc, run_body server ~doc (probe_of doc)) in
      let before = List.map (fun doc -> (doc, state doc)) docs in
      let constructing =
        List.filter
          (fun (name, doc, schema, src) ->
            let expected = fork_body server ~doc ?schema src in
            let constructs = not (contains ~needle:"+0 nodes, +0 edges" expected) in
            let copies0, builds0 = wglog_counters server in
            check (name ^ " first run") expected (run_body server ~doc ?schema src);
            check (name ^ " second run") expected (run_body server ~doc ?schema src);
            let copies1, builds1 = wglog_counters server in
            check_int (name ^ " graph copies")
              (if constructs then 2 else 0)
              (copies1 - copies0);
            if not constructs then
              check_int (name ^ " index builds") 0 (builds1 - builds0);
            constructs)
          wglog_cases
      in
      check_bool "Q10 and Q11 construct" true (List.length constructing >= 2);
      List.iter
        (fun (doc, st) ->
          check_bool (doc ^ " snapshot size and MATCH answer unchanged") true
            (state doc = st))
        before)

let test_wglog_concurrent_construction () =
  with_socket_server ~workers:4 ~result_cache:0 (fun server path ->
      add_wglog_fixtures server;
      let size0 = graph_size server "hyperdocs" in
      let expected =
        fork_body server ~doc:"hyperdocs" ~schema:"hyperdoc"
          Gql_workload.Queries.q11_src
      in
      let bodies = Array.make 4 [] in
      let client k () =
        let c = Client.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            for _ = 1 to 3 do
              match
                Client.run c ~doc:"hyperdocs" ~schema:"hyperdoc"
                  (`Source Gql_workload.Queries.q11_src)
              with
              | Ok (_, body) -> bodies.(k) <- body :: bodies.(k)
              | Error m -> bodies.(k) <- ("ERR " ^ m) :: bodies.(k)
            done)
      in
      List.iter Thread.join (List.init 4 (fun k -> Thread.create (client k) ()));
      check_bool "Q11 constructs" false (contains ~needle:"+0 edges" expected);
      Array.iteri
        (fun k bs ->
          List.iter
            (fun b -> check (Printf.sprintf "client %d body" k) expected b)
            bs)
        bodies;
      check_bool "snapshot size unchanged" true
        (graph_size server "hyperdocs" = size0))

let test_wglog_goal_on_loaded_snapshot () =
  let path = Filename.temp_file "gql-test-wide" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore
        (Gql_data.Store.save ~path
           (Gql_data.Index.build (Gql_workload.Gen.wide_graph ~hubs:64 4000)));
      let server = new_server ~workers:1 ~result_cache:0 () in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          (match
             Registry.load_snapshot (Server.registry server) ~name:"wide" path
           with
          | Ok _ -> ()
          | Error m -> Alcotest.fail m);
          let src = Gql_workload.Queries.q13_src in
          let counters0 = wglog_counters server in
          let served = run_body server ~doc:"wide" src in
          check_bool "goal neither copies nor indexes" true
            (wglog_counters server = counters0);
          check "Q13 on the loaded snapshot" (fork_body server ~doc:"wide" src) served))

(* --- cancellation at the deadline ----------------------------------------- *)

(* Pathological RUNs, one per engine check site.  Each runs well over 4x
   the 20 ms deadline unbounded; with the deadline it must stop inside
   the engine, answer TIMEOUT in under half the unbounded time, publish
   nothing (the unbounded rerun answers the reference body) and leave
   the snapshot as it was. *)
type heavy = {
  h_doc : string;
  h_fixture : Registry.t -> unit;
  h_schema : string option;
  h_src : string;
}

let graph_fixture name make =
  let g = lazy (make ()) in
  fun reg -> ignore (Registry.add_graph reg ~name (Lazy.force g))

let xml_fixture name make =
  let xml = lazy (Gql_xml.Printer.to_string (make ())) in
  fun reg -> ignore (Result.get_ok (Registry.load_xml reg ~name (Lazy.force xml)))

(* MATCH: the deadline-mix closure — Exec's Expand and the row render —
   over 600k nodes, so that with batched rows it still runs well over
   4x the deadline *)
let heavy_match =
  { h_doc = "deep";
    h_fixture =
      graph_fixture "deep" (fun () -> Gql_workload.Gen.deep_graph ~chains:64 600_000);
    h_schema = None;
    h_src = "MATCH (h:Head)-[:next+]->(t:Cell)\nRETURN h, t\n" }

(* MATCH: two components, which the plan joins with Cross *)
let heavy_cross =
  { h_doc = "pairs";
    h_fixture =
      graph_fixture "pairs" (fun () -> Gql_workload.Gen.wide_graph ~hubs:2000 2000);
    h_schema = None;
    h_src = "MATCH (h:Hub)\nMATCH (i:Item)\nRETURN h, i\n" }

(* XML-GL: Q4's value join, where Homo backtracks over every pair *)
let heavy_xmlgl =
  { h_doc = "greengrocer";
    h_fixture =
      xml_fixture "greengrocer" (fun () ->
          Gql_workload.Gen.greengrocer ~seed:83 ~vendors:400 10_000);
    h_schema = None;
    h_src = Gql_workload.Queries.q4_src }

(* WG-Log: one construction per item of a wide scale fixture *)
let heavy_wglog =
  { h_doc = "wide";
    h_fixture =
      graph_fixture "wide" (fun () -> Gql_workload.Gen.wide_graph ~hubs:64 200_000);
    h_schema = None;
    h_src = "wglog\nrule\n  node h Hub\n  node i Item\n  edge h rel i\n  cedge i owner h\nend\n" }

(* Regular path: Q12's index+ closure per root document, memo cold *)
let heavy_path =
  { h_doc = "hyperdocs";
    h_fixture =
      graph_fixture "hyperdocs" (fun () -> Gql_workload.Gen.hyperdocs ~seed:85 6_000);
    h_schema = Some "hyperdoc";
    h_src = Gql_workload.Queries.q12_src }

let heavy_server ?(result_cache = 64) ?(domains = 1) (h : heavy) =
  let server =
    Server.create
      ~config:
        { Server.default_config with
          workers = Some 1; result_cache; run_domains = Some domains }
      ()
  in
  h.h_fixture (Server.registry server);
  server

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let heavy_run ?deadline_ms server (h : heavy) =
  send server
    (Protocol.Run
       { doc = h.h_doc; query = `Source h.h_src; schema = h.h_schema; deadline_ms })

let metric server key =
  match send server Protocol.Metrics with
  | Protocol.Ok_ { body; _ } -> int_of_string (List.assoc key (Metrics.parse_body body))
  | r -> Alcotest.failf "METRICS: %s" (Protocol.render_response r)

let check_cancel ?(domains = 1) (h : heavy) () =
  (* the reference and the unbounded time come from a separate server,
     so every cache of the server under test is still cold *)
  let reference, unbounded_ms =
    let server = heavy_server ~domains h in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () -> timed (fun () -> heavy_run server h))
  in
  let reference =
    match reference with
    | Protocol.Ok_ { body; _ } -> body
    | r -> Alcotest.failf "unbounded RUN: %s" (Protocol.render_response r)
  in
  check_bool "pathological: unbounded run takes over 4x the deadline" true
    (unbounded_ms > 80.0);
  let server = heavy_server ~domains h in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let size0 = graph_size server h.h_doc in
      let jobs0 = metric server "par_jobs" in
      let resp, bounded_ms = timed (fun () -> heavy_run ~deadline_ms:20.0 server h) in
      if domains > 1 then
        check_bool "the cancelled RUN fanned out" true (metric server "par_jobs" > jobs0);
      (match resp with
      | Protocol.Timeout _ -> ()
      | r -> Alcotest.failf "deadline=20: %s" (Protocol.render_response r));
      check_bool "TIMEOUT in under half the unbounded time" true
        (bounded_ms < unbounded_ms /. 2.0);
      check_int "cancelled inside an engine" 1 (metric server "cancelled");
      (match heavy_run server h with
      | Protocol.Ok_ { body; info } ->
        check "unbounded rerun answers the reference" reference body;
        check_bool "nothing was cached" false (contains ~needle:"cached" info)
      | r -> Alcotest.failf "unbounded rerun: %s" (Protocol.render_response r));
      check_bool "snapshot unchanged" true (graph_size server h.h_doc = size0);
      check_int "timeouts" 1 (metric server "timeouts"))

(* One worker: a short RUN queued behind a cancelled heavy one is
   answered once the heavy RUN gives its worker back. *)
let test_cancel_frees_worker () =
  let h = heavy_match in
  (* no result cache: the heavy RUN evaluates every time *)
  let server = heavy_server ~result_cache:0 h in
  ignore
    (Registry.add_graph (Server.registry server) ~name:"small"
       (Gql_workload.Gen.deep_graph ~chains:4 40));
  let unbounded_ms = snd (timed (fun () -> heavy_run server h)) in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gql-cancel-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let _ = Server.listen server (Unix.ADDR_UNIX path) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let heavy_answer = ref (Error "not answered") in
      let heavy_client =
        Thread.create
          (fun () ->
            let c = Client.connect_unix path in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                heavy_answer :=
                  Client.run c ~doc:h.h_doc ~deadline_ms:20.0 (`Source h.h_src)))
          ()
      in
      Thread.delay 0.005;
      let c = Client.connect_unix path in
      let short, short_ms =
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            timed (fun () ->
                Client.run c ~doc:"small" (`Source "MATCH (h:Head)\nRETURN h\n")))
      in
      Thread.join heavy_client;
      check_bool "heavy RUN timed out" true
        (match !heavy_answer with
        | Error m -> contains ~needle:"timeout" m
        | Ok _ -> false);
      check "short RUN answered" "h\nHead\nHead\nHead\nHead\n"
        (match short with Ok (_, body) -> body | Error m -> m);
      check_bool "short RUN answered promptly" true (short_ms < unbounded_ms /. 2.0))

(* --- protocol framing ----------------------------------------------------- *)

let test_framing_roundtrip () =
  let payloads =
    [ ""; "x"; "two\nlines"; String.make 100_000 'z'; "trailing\n" ]
  in
  let path = Filename.temp_file "gql-frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      List.iter (Protocol.write_frame oc) payloads;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          List.iter
            (fun want ->
              match Protocol.read_frame ic with
              | Some got -> check "frame" want got
              | None -> Alcotest.fail "premature EOF")
            payloads;
          check_bool "clean EOF" true (Protocol.read_frame ic = None)))

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.Load { doc = "d"; xml = "<a/>" };
      Protocol.Prepare { name = "n"; schema = Some "restaurant"; source = "wglog\n" };
      Protocol.Run
        { doc = "d"; query = `Named "n"; schema = None; deadline_ms = Some 25.0 };
      Protocol.Run
        { doc = "d"; query = `Source "xmlgl\nbody"; schema = None; deadline_ms = None };
      Protocol.Explain { doc = "d"; query = `Named "n" };
      Protocol.Stats { doc = "d" };
      Protocol.Metrics;
      Protocol.Ping;
      Protocol.Quit;
    ]
  in
  List.iter
    (fun r ->
      check_bool "roundtrip" true
        (Protocol.parse_request (Protocol.render_request r) = r))
    reqs;
  check_bool "verbs are case-insensitive" true
    (Protocol.parse_request "stats d" = Protocol.Stats { doc = "d" });
  check_bool "unknown verb rejected" true
    (match Protocol.parse_request "FROB x" with
    | exception Protocol.Protocol_error _ -> true
    | _ -> false)

let () =
  Alcotest.run "server"
    [
      ( "satellites",
        [
          Alcotest.test_case "language_of_source" `Quick test_language_of;
          Alcotest.test_case "graph copy isolation" `Quick test_graph_copy_isolated;
        ] );
      ( "components",
        [
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "result-cache LRU" `Quick test_rcache_lru;
          Alcotest.test_case "result-cache versioning" `Quick test_rcache_version_isolation;
          Alcotest.test_case "prepared-query cache" `Quick test_qcache;
          Alcotest.test_case "re-prepare FIFO accounting" `Quick
            test_qcache_reprepare_no_double_enqueue;
          Alcotest.test_case "frame roundtrip" `Quick test_framing_roundtrip;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "in-process, cold and cached" `Quick
            test_inprocess_byte_identity;
          Alcotest.test_case "over a unix socket" `Quick test_socket_byte_identity;
          Alcotest.test_case "prepared run" `Quick test_prepare_and_run;
          Alcotest.test_case "plan cache counters" `Quick
            test_plan_cache_counters;
          Alcotest.test_case "reload invalidates" `Quick test_reload_invalidates;
        ] );
      ( "service",
        [
          Alcotest.test_case "stats, metrics, errors, deadline" `Quick
            test_stats_metrics_errors;
          Alcotest.test_case "malformed programs yield ERR" `Quick
            test_malformed_programs_yield_err;
          Alcotest.test_case "8 clients x 4 domains determinism" `Quick
            test_concurrent_determinism;
          Alcotest.test_case "malformed regex yields ERR" `Quick
            test_bad_regex_err;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "MATCH next+ closure" `Quick (check_cancel heavy_match);
          Alcotest.test_case "XML-GL value join" `Quick (check_cancel heavy_xmlgl);
          Alcotest.test_case "WG-Log construction" `Quick (check_cancel heavy_wglog);
          Alcotest.test_case "path closure, cold memo" `Quick (check_cancel heavy_path);
          Alcotest.test_case "XML-GL join, 2 domains" `Quick
            (check_cancel ~domains:2 heavy_xmlgl);
          Alcotest.test_case "1 worker freed for a short RUN" `Quick
            test_cancel_frees_worker;
          Alcotest.test_case "MATCH cross product" `Quick (check_cancel heavy_cross);
        ] );
      ( "cow-fixpoint",
        [
          Alcotest.test_case "WG-Log suite twice uncached" `Quick
            test_wglog_served_uncached;
          Alcotest.test_case "4 concurrent constructing runs" `Quick
            test_wglog_concurrent_construction;
          Alcotest.test_case "goal on a loaded snapshot" `Quick
            test_wglog_goal_on_loaded_snapshot;
        ] );
    ]
