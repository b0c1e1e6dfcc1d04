type name =
  | Scan_vs_index
  | Digraph_vs_csr
  | Engine_vs_algebra
  | Direct_vs_served
  | Seq_vs_par
  | Match_vs_algebra
  | Loaded_vs_frozen

let all =
  [ Scan_vs_index; Digraph_vs_csr; Engine_vs_algebra; Direct_vs_served;
    Seq_vs_par; Match_vs_algebra; Loaded_vs_frozen ]

let to_string = function
  | Scan_vs_index -> "scan-vs-index"
  | Digraph_vs_csr -> "digraph-vs-csr"
  | Engine_vs_algebra -> "engine-vs-algebra"
  | Direct_vs_served -> "direct-vs-served"
  | Seq_vs_par -> "seq-vs-par"
  | Match_vs_algebra -> "match-vs-algebra"
  | Loaded_vs_frozen -> "loaded-vs-frozen"

let of_string = function
  | "scan-vs-index" -> Some Scan_vs_index
  | "digraph-vs-csr" -> Some Digraph_vs_csr
  | "engine-vs-algebra" -> Some Engine_vs_algebra
  | "direct-vs-served" -> Some Direct_vs_served
  | "seq-vs-par" -> Some Seq_vs_par
  | "match-vs-algebra" -> Some Match_vs_algebra
  | "loaded-vs-frozen" -> Some Loaded_vs_frozen
  | _ -> None

type verdict = Pass | Fail of string

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt

(* Evaluate a thunk to a result-or-error; the typed errors the engines
   may legitimately raise become comparable [Error] values, so an
   oracle can also check that both paths *reject* an input. *)
let capture (f : unit -> 'a) : ('a, string) result =
  match f () with
  | v -> Ok v
  | exception Gql_core.Gql.Error msg -> Error ("gql: " ^ msg)
  | exception Gql_wglog.Eval.Invalid_query msg -> Error ("invalid query: " ^ msg)
  | exception Gql_xmlgl.Construct.Invalid_query msg ->
    Error ("invalid query: " ^ msg)
  | exception Gql_xmlgl.Engine.Ill_formed errs ->
    Error ("invalid query: " ^ String.concat "; " errs)
  | exception Gql_match.Parse.Error msg -> Error ("match parse: " ^ msg)
  | exception Gql_match.Compile.Error msg -> Error ("invalid query: " ^ msg)
  | exception Failure msg -> Error ("failure: " ^ msg)

let norm_bindings (bs : int array list) : int list list =
  List.sort compare (List.map Array.to_list bs)

(* ------------------------------------------------------------------ *)
(* (a) scan vs. indexed candidates                                     *)
(* ------------------------------------------------------------------ *)

let scan_vs_index ~(xml : string) ~(source : string) : verdict =
  match capture (fun () -> Gql_core.Gql.load_xml_string xml) with
  | Error e -> failf "document rejected: %s" e
  | Ok db -> (
    let data = db.Gql_core.Gql.graph in
    match Gql_core.Gql.language_of_source source with
    | `Xmlgl -> (
      let run use_index =
        capture (fun () ->
            let p = Gql_core.Gql.parse_xmlgl source in
            List.concat_map
              (fun (r : Gql_xmlgl.Ast.rule) ->
                if use_index then
                  Gql_xmlgl.Engine.query_bindings ~index:(Gql_core.Gql.index db)
                    data r.Gql_xmlgl.Ast.query
                else Gql_xmlgl.Engine.query_bindings data r.Gql_xmlgl.Ast.query)
              p.Gql_xmlgl.Ast.rules)
      in
      match run false, run true with
      | Ok scan, Ok indexed ->
        if List.equal (fun a b -> a = b) (List.map Array.to_list scan)
             (List.map Array.to_list indexed)
        then Pass
        else
          failf "xmlgl bindings differ: scan=%d indexed=%d" (List.length scan)
            (List.length indexed)
      | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
      | Ok _, Error e -> failf "indexed raised where scan answered: %s" e
      | Error e, Ok _ -> failf "scan raised where indexed answered: %s" e)
    | `Wglog -> (
      let run use_index =
        capture (fun () ->
            let p = Gql_core.Gql.parse_wglog source in
            List.concat_map
              (fun r ->
                if use_index then
                  Gql_wglog.Eval.goal ~index:(Gql_core.Gql.index db) data r
                else Gql_wglog.Eval.goal data r)
              p.Gql_wglog.Ast.rules)
      in
      match run false, run true with
      | Ok scan, Ok indexed ->
        if List.map Array.to_list scan = List.map Array.to_list indexed then Pass
        else
          failf "wglog embeddings differ: scan=%d indexed=%d" (List.length scan)
            (List.length indexed)
      | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
      | Ok _, Error e -> failf "indexed raised where scan answered: %s" e
      | Error e, Ok _ -> failf "scan raised where indexed answered: %s" e)
    | `Match -> (
      let run use_index =
        capture (fun () ->
            let q = Gql_core.Gql.parse_match source in
            let c = Gql_match.Compile.compile q in
            let index = if use_index then Some (Gql_core.Gql.index db) else None in
            Gql_match.Eval.bindings ?index data c)
      in
      match run false, run true with
      | Ok scan, Ok indexed ->
        if List.map Array.to_list scan = List.map Array.to_list indexed then Pass
        else
          failf "match embeddings differ: scan=%d indexed=%d" (List.length scan)
            (List.length indexed)
      | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
      | Ok _, Error e -> failf "indexed raised where scan answered: %s" e
      | Error e, Ok _ -> failf "scan raised where indexed answered: %s" e)
    | `Unknown -> failf "query source has no language header")

(* ------------------------------------------------------------------ *)
(* (b) Digraph vs. frozen Csr regular-path search                      *)
(* ------------------------------------------------------------------ *)

let digraph_vs_csr ~(graph_seed : int) ~(regex_src : string) : verdict =
  match Gql_lang.Label_re.parse regex_src with
  (* a regex the parser refuses is vacuous for this oracle; the
     parse-error path has its own unit tests *)
  | exception Gql_lang.Label_re.Error _ -> Pass
  | re -> (
    let g = Casegen.gen_graph ~graph_seed in
    let rp =
      Gql_graph.Regpath.compile
        (fun sym lbl -> Gql_lang.Label_re.symbol_matches sym lbl)
        re
    in
    let frozen = Gql_graph.Csr.freeze g in
    let n = Gql_graph.Digraph.n_nodes g in
    let fwd = Array.init n (fun s -> Gql_graph.Regpath.reachable rp g s) in
    (* the reverse leg: who reaches [t] is the forward relation transposed *)
    let back = Array.make n [] in
    for s = n - 1 downto 0 do
      List.iter (fun t -> back.(t) <- s :: back.(t)) fwd.(s)
    done;
    let rec check_from s =
      if s >= n then Pass
      else
        let cold = Gql_graph.Regpath.reachable_frozen rp frozen s in
        let rev_live = Gql_graph.Iset.to_list (Gql_graph.Regpath.reachable_rev_set rp g s) in
        let rev_cold =
          Gql_graph.Iset.to_list (Gql_graph.Regpath.reachable_frozen_rev_set rp frozen s)
        in
        if fwd.(s) <> cold then
          failf "reachable sets differ from node %d under /%s/: live=%d frozen=%d"
            s regex_src (List.length fwd.(s)) (List.length cold)
        else if rev_live <> back.(s) || rev_cold <> back.(s) then
          failf
            "reverse sets into node %d under /%s/: transposed=%d live=%d frozen=%d"
            s regex_src (List.length back.(s)) (List.length rev_live)
            (List.length rev_cold)
        else check_from (s + 1)
    in
    check_from 0)

(* ------------------------------------------------------------------ *)
(* The reference MATCH render                                          *)
(* ------------------------------------------------------------------ *)

let reference_body (data : Gql_data.Graph.t) (c : Gql_match.Compile.t)
    (embs : int array list) : string =
  let line emb =
    String.concat "\t"
      (List.map
         (fun (r, i) -> Gql_match.Eval.cell data r emb.(i))
         c.Gql_match.Compile.ret_cols)
  in
  String.concat "\n"
    (Gql_match.Eval.header c :: List.sort String.compare (List.map line embs))
  ^ "\n"

(* MATCH routes render to [(body, reference body)]; the first route
   whose two bodies differ, if any.  Checked apart from the route
   comparison, so a render fault shared by every route still fails. *)
let reference_mismatch (routes : (string * (string * string, string) result) list) =
  List.find_map
    (fun (label, r) ->
      match r with
      | Ok (body, reference) when body <> reference ->
        Some
          (Printf.sprintf "%s body differs from the reference render (%d vs %d bytes)"
             label (String.length body) (String.length reference))
      | Ok _ | Error _ -> None)
    routes

(* ------------------------------------------------------------------ *)
(* (c) direct engine vs. algebra planner/exec                          *)
(* ------------------------------------------------------------------ *)

let shuffled_planner ~seed (data : Gql_data.Graph.t)
    (job : Gql_algebra.Planner.job) : Gql_algebra.Plan.t =
  let k = Array.length job.Gql_algebra.Planner.pattern.Gql_graph.Homo.p_nodes in
  let rng = Gql_workload.Prng.create ((seed * 131) + 17) in
  Gql_algebra.Planner.build_in_order data job
    (Array.to_list (Gql_workload.Prng.shuffle rng (Array.init k Fun.id)))

let engine_vs_algebra ~seed ~(xml : string) ~(source : string) : verdict =
  match Gql_core.Gql.language_of_source source with
  | `Wglog | `Unknown -> Pass (* the algebra path plans XML-GL queries *)
  | `Match -> Pass (* covered, more strictly, by match_vs_algebra *)
  | `Xmlgl -> (
    match
      capture (fun () ->
          let db = Gql_core.Gql.load_xml_string xml in
          let p = Gql_core.Gql.parse_xmlgl source in
          (db, p))
    with
    | Error e -> failf "inputs rejected: %s" e
    | Ok (db, p) ->
      let data = db.Gql_core.Gql.graph in
      let idx = Gql_core.Gql.index db in
      let rec rules = function
        | [] -> Pass
        | (r : Gql_xmlgl.Ast.rule) :: rest -> (
          let q = r.Gql_xmlgl.Ast.query in
          let direct =
            capture (fun () -> norm_bindings (Gql_xmlgl.Matching.run ~index:idx data q))
          in
          let planned planner =
            capture (fun () ->
                norm_bindings (Gql_algebra.Exec.run_xmlgl ~planner ~index:idx data q))
          in
          match
            direct, planned Gql_algebra.Planner.build, planned (shuffled_planner ~seed)
          with
          | Ok d, Ok g, Ok f ->
            if d = g && d = f then rules rest
            else
              failf "binding sets differ: direct=%d fail-first=%d shuffled=%d"
                (List.length d) (List.length g) (List.length f)
          | Error a, Error b, Error c ->
            if a = b && a = c then rules rest
            else failf "errors differ: %s / %s / %s" a b c
          | d, g, f ->
            let s = function Ok _ -> "ok" | Error e -> e in
            failf "one path raised: direct=%s fail-first=%s shuffled=%s" (s d) (s g)
              (s f))
      in
      rules p.Gql_xmlgl.Ast.rules)

(* ------------------------------------------------------------------ *)
(* (d) direct vs. served (cold and cached)                             *)
(* ------------------------------------------------------------------ *)

type transport = Gql_server.Protocol.request -> Gql_server.Protocol.response

let socket_transport (c : Gql_server.Client.t) : transport =
  fun req -> Gql_server.Client.request c req

let inproc_transport (s : Gql_server.Server.t) : transport =
  fun req ->
    Gql_server.Protocol.parse_response
      (Gql_server.Server.handle_payload s (Gql_server.Protocol.render_request req))

(** What direct evaluation answers for [source] over [xml]: exactly the
    body a [RUN] response carries, or a typed error. *)
let direct_body ~xml ~source : (string, string) result =
  capture (fun () ->
      let db = Gql_core.Gql.load_xml_string xml in
      match Gql_core.Gql.language_of_source source with
      | `Xmlgl ->
        Gql_core.Gql.to_xml_string
          (Gql_core.Gql.run_xmlgl db (Gql_core.Gql.parse_xmlgl source))
      | `Wglog ->
        Gql_server.Server.wglog_stats_line
          (Gql_core.Gql.run_wglog db (Gql_core.Gql.parse_wglog source))
      | `Match -> fst (Gql_core.Gql.run_match db (Gql_core.Gql.parse_match source))
      | `Unknown ->
        failwith "query source must start with 'xmlgl', 'wglog' or 'match'")

(* Judge one answer against the direct evaluation. *)
let agrees ~(direct : (string, string) result Lazy.t) label = function
  | Ok body -> (
    match Lazy.force direct with
    | Ok want when want = body -> Pass
    | Ok want ->
      failf "%s body differs (%d vs %d bytes)" label (String.length want)
        (String.length body)
    | Error e -> failf "%s answered where direct raised: %s" label e)
  | Error e -> (
    match Lazy.force direct with
    | Error _ -> Pass
    | Ok _ -> failf "%s raised where direct answered: %s" label e)

let first_fail (checks : (unit -> verdict) list) : verdict =
  List.fold_left (fun v c -> match v with Fail _ -> v | Pass -> c ()) Pass checks

(* LOAD [xml] under [doc_name] through [t], then judge one RUN of
   [source] per (label, deadline) against the direct body.  A RUN with a
   deadline may answer TIMEOUT instead. *)
let served_runs (t : transport) ~doc_name ~xml ~source ~direct_load
    ~(direct : (string, string) result Lazy.t) (runs : (string * float option) list) :
    verdict =
  let load = t (Gql_server.Protocol.Load { doc = doc_name; xml }) in
  match load, direct_load with
  | Gql_server.Protocol.Err _, Error _ -> Pass (* both reject the document *)
  | Gql_server.Protocol.Err msg, Ok () -> failf "served LOAD rejected: %s" msg
  | (Gql_server.Protocol.Ok_ _ | Gql_server.Protocol.Timeout _), Error e ->
    failf "direct load rejected where served LOAD answered: %s" e
  | Gql_server.Protocol.Timeout _, Ok () -> Fail "LOAD timed out"
  | Gql_server.Protocol.Ok_ _, Ok () ->
    let check_one (label, deadline_ms) () =
      match
        t
          (Gql_server.Protocol.Run
             { doc = doc_name; query = `Source source; schema = None; deadline_ms })
      with
      | Gql_server.Protocol.Ok_ { body; _ } -> agrees ~direct label (Ok body)
      | Gql_server.Protocol.Err msg -> agrees ~direct label (Error msg)
      | Gql_server.Protocol.Timeout _ ->
        if deadline_ms = None then failf "%s timed out" label else Pass
    in
    first_fail (List.map check_one runs)

(** What the direct engines answer over a served snapshot: its graph and
    its index, read the way the server reads them (a WG-Log fixpoint
    copies on write). *)
let snapshot_body (snap : Gql_server.Registry.snapshot) ~source :
    (string, string) result =
  let graph = snap.Gql_server.Registry.db.Gql_core.Gql.graph
  and index = snap.Gql_server.Registry.index in
  capture (fun () ->
      match Gql_core.Gql.language_of_source source with
      | `Xmlgl ->
        Gql_core.Gql.to_xml_string
          (Gql_xmlgl.Engine.run_program ~index graph
             (Gql_core.Gql.parse_xmlgl source))
      | `Wglog ->
        Gql_server.Server.wglog_stats_line
          (Gql_wglog.Eval.run ~index ~copy_on_write:true graph
             (Gql_core.Gql.parse_wglog source))
      | `Match ->
        fst (Gql_match.Eval.run ~index graph (Gql_core.Gql.parse_match source))
      | `Unknown ->
        failwith "query source must start with 'xmlgl', 'wglog' or 'match'")

(** The deadline of the bounded runs, drawn from the case seed: 2 us to
    1 ms out, log-uniform, so cancellation lands at different check
    sites across cases. *)
let budget_s ~seed =
  let rng = Gql_workload.Prng.create ((seed * 31) + 7) in
  2e-6 *. (500.0 ** Gql_workload.Prng.float rng)

(* The direct engines on [server]'s fresh snapshot of [xml]: once under
   the deadline, which must answer the direct body or be cancelled, then
   unbounded on the same snapshot, which must still answer it — so the
   cancelled run published no partial path memo. *)
let bounded_direct (server : Gql_server.Server.t) ~doc_name ~xml ~source
    ~budget ~direct : verdict =
  match
    inproc_transport server (Gql_server.Protocol.Load { doc = doc_name; xml })
  with
  | Gql_server.Protocol.Err _ | Gql_server.Protocol.Timeout _ ->
    Pass (* the served leg has judged the LOAD already *)
  | Gql_server.Protocol.Ok_ _ ->
    let snap =
      Option.get
        (Gql_server.Registry.find (Gql_server.Server.registry server) doc_name)
    in
    first_fail
      [ (fun () ->
          match
            Gql_graph.Deadline.with_deadline (Unix.gettimeofday () +. budget)
              (fun () -> snapshot_body snap ~source)
          with
          | r -> agrees ~direct "bounded direct" r
          | exception Gql_graph.Deadline.Exceeded -> Pass);
        (fun () -> agrees ~direct "unbounded direct" (snapshot_body snap ~source)) ]

let direct_vs_served ~(uncached : Gql_server.Server.t) ~seed (t : transport)
    ~(doc_name : string) ~(xml : string) ~(source : string) : verdict =
  let direct_load =
    capture (fun () -> ignore (Gql_core.Gql.load_xml_string xml))
  in
  let direct = lazy (direct_body ~xml ~source) in
  let budget = budget_s ~seed in
  let bounded = ("bounded", Some (budget *. 1000.0)) in
  let served t = served_runs t ~doc_name ~xml ~source ~direct_load ~direct in
  first_fail
    [ (fun () -> served t [ bounded; ("unbounded", None); ("cached", None) ]);
      (fun () -> bounded_direct uncached ~doc_name ~xml ~source ~budget ~direct);
      (fun () ->
        served (inproc_transport uncached)
          [ bounded; ("uncached 1", None); ("uncached 2", None) ]) ]

(* ------------------------------------------------------------------ *)
(* (e) sequential vs. domain-parallel evaluation                       *)
(* ------------------------------------------------------------------ *)

let par_domains = 3
(* enough to exercise spawning, chunk hand-off and ordered merge even
   on a small machine; the answer must not depend on the count *)

(* Everything observable about a graph, in deterministic order — node
   kinds plus every edge with its full payload (incl. generation
   stamps), so two fixpoint runs compare byte-for-byte. *)
let graph_fingerprint (data : Gql_data.Graph.t) =
  let nodes =
    List.rev
      (Gql_graph.Digraph.fold_nodes
         (fun acc i kind -> (i, kind) :: acc)
         [] (Gql_data.Graph.digraph data))
  in
  let edges = ref [] in
  Gql_graph.Digraph.iter_edges
    (fun ~src ~dst (e : Gql_data.Graph.edge) -> edges := (src, dst, e) :: !edges)
    (Gql_data.Graph.digraph data);
  (nodes, List.rev !edges)

let seq_vs_par ~(xml : string) ~(source : string) : verdict =
  match Gql_core.Gql.language_of_source source with
  | `Unknown -> failf "query source has no language header"
  | `Xmlgl -> (
    let run domains =
      capture (fun () ->
          let db = Gql_core.Gql.load_xml_string xml in
          let p = Gql_core.Gql.parse_xmlgl source in
          List.concat_map
            (fun (r : Gql_xmlgl.Ast.rule) ->
              Gql_xmlgl.Engine.query_bindings ~index:(Gql_core.Gql.index db)
                ~domains db.Gql_core.Gql.graph r.Gql_xmlgl.Ast.query)
            p.Gql_xmlgl.Ast.rules)
    in
    match run 1, run par_domains with
    | Ok seq, Ok par ->
      if List.map Array.to_list seq = List.map Array.to_list par then Pass
      else
        failf "xmlgl bindings differ: seq=%d par=%d" (List.length seq)
          (List.length par)
    | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
    | Ok _, Error e -> failf "parallel raised where sequential answered: %s" e
    | Error e, Ok _ -> failf "sequential raised where parallel answered: %s" e)
  | `Match -> (
    (* raw embedding order through both the direct matcher and the
       algebra executor must not depend on the domain count *)
    let run domains =
      capture (fun () ->
          let db = Gql_core.Gql.load_xml_string xml in
          let q = Gql_core.Gql.parse_match source in
          let c = Gql_match.Compile.compile q in
          let index = Gql_core.Gql.index db in
          let data = db.Gql_core.Gql.graph in
          ( List.map Array.to_list (Gql_match.Eval.bindings ~index ~domains data c),
            List.map Array.to_list
              (Gql_match.Eval.bindings_algebra ~index ~domains data c) ))
    in
    match run 1, run par_domains with
    | Ok seq, Ok par ->
      if seq = par then Pass
      else
        failf "match bindings differ: seq=%d/%d par=%d/%d"
          (List.length (fst seq)) (List.length (snd seq))
          (List.length (fst par)) (List.length (snd par))
    | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
    | Ok _, Error e -> failf "parallel raised where sequential answered: %s" e
    | Error e, Ok _ -> failf "sequential raised where parallel answered: %s" e)
  | `Wglog -> (
    (* goal embeddings AND the full fixpoint (stats + derived graph) *)
    let run domains =
      capture (fun () ->
          let db = Gql_core.Gql.load_xml_string xml in
          let p = Gql_core.Gql.parse_wglog source in
          let goals =
            List.concat_map
              (fun r ->
                List.map Array.to_list
                  (Gql_wglog.Eval.goal ~index:(Gql_core.Gql.index db) ~domains
                     db.Gql_core.Gql.graph r))
              p.Gql_wglog.Ast.rules
          in
          let g = Gql_data.Graph.copy db.Gql_core.Gql.graph in
          let stats = Gql_wglog.Eval.run ~domains g p in
          (goals, stats, graph_fingerprint g))
    in
    match run 1, run par_domains with
    | Ok (gs, ss, fs), Ok (gp, sp, fp) ->
      if gs <> gp then
        failf "wglog goal embeddings differ: seq=%d par=%d" (List.length gs)
          (List.length gp)
      else if ss <> sp then
        failf "fixpoint stats differ: seq=%d/%d/%d/%d par=%d/%d/%d/%d"
          ss.Gql_wglog.Eval.rounds ss.embeddings_found ss.nodes_added
          ss.edges_added sp.Gql_wglog.Eval.rounds sp.embeddings_found
          sp.nodes_added sp.edges_added
      else if fs <> fp then Fail "derived graphs differ"
      else Pass
    | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
    | Ok _, Error e -> failf "parallel raised where sequential answered: %s" e
    | Error e, Ok _ -> failf "sequential raised where parallel answered: %s" e)

(* ------------------------------------------------------------------ *)
(* (f) the textual MATCH front-end vs. everything else                 *)
(* ------------------------------------------------------------------ *)

let match_vs_algebra (transport : transport option) ~seed ~(doc_name : string)
    ~(xml : string) ~(source : string) : verdict =
  match Gql_match.Parse.parse_result source with
  | Error msg -> failf "MATCH source does not parse: %s" msg
  | Ok q -> (
    let printed = Gql_match.Pp.query q in
    match Gql_match.Parse.parse_result printed with
    | Error msg -> failf "pretty-printed query does not re-parse: %s" msg
    | Ok q2 when q2 <> q -> Fail "pp roundtrip changed the AST"
    | Ok _ when Gql_match.Pp.query (Gql_match.Parse.parse printed) <> printed ->
      Fail "pp is not idempotent"
    | Ok _ -> (
      match capture (fun () -> Gql_core.Gql.load_xml_string xml) with
      | Error e -> failf "document rejected: %s" e
      | Ok db -> (
        let data = db.Gql_core.Gql.graph in
        let route f =
          capture (fun () ->
              let c = Gql_match.Compile.compile q in
              let embs = f c in
              (Gql_match.Eval.body data c embs, reference_body data c embs))
        in
        let checked =
          [
            ("homo-scan", route (fun c -> Gql_match.Eval.bindings data c));
            ( "homo-indexed",
              route (fun c ->
                  Gql_match.Eval.bindings ~index:(Gql_core.Gql.index db) data c)
            );
            ( "algebra-greedy",
              route (fun c ->
                  Gql_match.Eval.bindings_algebra
                    ~index:(Gql_core.Gql.index db) data c) );
            ( "algebra-shuffled",
              route (fun c ->
                  Gql_match.Eval.bindings_algebra ~planner:(shuffled_planner ~seed)
                    ~index:(Gql_core.Gql.index db) data c) );
            ( "algebra-noindex",
              route (fun c -> Gql_match.Eval.bindings_algebra data c) );
          ]
        in
        let routes = List.map (fun (l, r) -> (l, Result.map fst r)) checked in
        let disagreement =
          match reference_mismatch checked with
          | Some _ as d -> d
          | None -> (
            match routes with
            | [] -> None
            | (ref_label, ref_res) :: rest ->
              List.find_map
                (fun (label, res) ->
                  match ref_res, res with
                  | Ok a, Ok b when a = b -> None
                  | Error a, Error b when a = b -> None
                  | _ ->
                    let s = function Ok _ -> "ok" | Error e -> e in
                    Some
                      (Printf.sprintf "%s and %s disagree (%s / %s)" ref_label
                         label (s ref_res) (s res)))
                rest)
        in
        match disagreement with
        | Some msg -> Fail msg
        | None -> (
          match transport with
          | None -> Pass
          | Some t -> (
            match t (Gql_server.Protocol.Load { doc = doc_name; xml }) with
            | Gql_server.Protocol.Err msg -> failf "served LOAD rejected: %s" msg
            | Gql_server.Protocol.Timeout _ -> Fail "LOAD timed out"
            | Gql_server.Protocol.Ok_ _ -> (
              (* the server evaluates MATCH through the algebra (greedy,
                 indexed): compare against that same route's body *)
              let direct =
                List.assoc "algebra-greedy" routes
              in
              let run () =
                t
                  (Gql_server.Protocol.Run
                     {
                       doc = doc_name;
                       query = `Source source;
                       schema = None;
                       deadline_ms = None;
                     })
              in
              let check_one label (resp : Gql_server.Protocol.response) =
                match direct, resp with
                | Ok body, Gql_server.Protocol.Ok_ { body = served; _ } ->
                  if body = served then Pass
                  else
                    failf "%s body differs (%d vs %d bytes)" label
                      (String.length body) (String.length served)
                | Error _, Gql_server.Protocol.Err _ -> Pass
                | Ok _, Gql_server.Protocol.Err msg ->
                  failf "%s served ERR: %s" label msg
                | Error e, Gql_server.Protocol.Ok_ _ ->
                  failf "%s direct raised where served answered: %s" label e
                | _, Gql_server.Protocol.Timeout _ -> failf "%s timed out" label
              in
              match check_one "cold" (run ()) with
              | Fail _ as f -> f
              | Pass -> check_one "cached" (run ())))))))

(* ------------------------------------------------------------------ *)
(* (g) freshly frozen vs. snapshot save/load round-trip                *)
(* ------------------------------------------------------------------ *)

let loaded_vs_frozen ~seed ~(xml : string) ~(source : string) : verdict =
  match Gql_core.Gql.language_of_source source with
  | `Unknown -> failf "query source has no language header"
  | lang -> (
    match capture (fun () -> Gql_core.Gql.load_xml_string xml) with
    | Error e -> failf "document rejected: %s" e
    | Ok frozen ->
      let tmp = Filename.temp_file "gql-fuzz" ".snap" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          match
            capture (fun () ->
                ignore (Gql_data.Store.save ~path:tmp (Gql_core.Gql.index frozen));
                Gql_core.Gql.load_snapshot_file tmp)
          with
          | Error e -> failf "snapshot round-trip rejected: %s" e
          | Ok loaded -> (
            let pair label a b =
              match a, b with
              | Ok x, Ok y when x = y -> None
              | Error x, Error y when x = y -> None
              | _ ->
                let s = function Ok _ -> "ok" | Error e -> e in
                Some
                  (Printf.sprintf "%s differs frozen-vs-loaded (%s / %s)" label
                     (s a) (s b))
            in
            let disagreement =
              match lang with
              | `Xmlgl ->
                let run (db : Gql_core.Gql.db) =
                  capture (fun () ->
                      Gql_core.Gql.to_xml_string
                        (Gql_core.Gql.run_xmlgl db (Gql_core.Gql.parse_xmlgl source)))
                in
                pair "xmlgl result" (run frozen) (run loaded)
              | `Wglog -> (
                let counts (s : Gql_wglog.Eval.stats) =
                  (s.rounds, s.embeddings_found, s.nodes_added, s.edges_added)
                in
                let run (db : Gql_core.Gql.db) =
                  capture (fun () ->
                      let g = Gql_data.Graph.copy db.Gql_core.Gql.graph in
                      let fork = Gql_core.Gql.of_graph g in
                      let stats =
                        Gql_core.Gql.run_wglog fork (Gql_core.Gql.parse_wglog source)
                      in
                      (counts stats, graph_fingerprint g))
                in
                (* the served route: copy-on-write over the loaded graph
                   and its loaded index, which must stay untouched *)
                let shared (db : Gql_core.Gql.db) =
                  capture (fun () ->
                      let g = db.Gql_core.Gql.graph in
                      let size () =
                        (Gql_data.Graph.n_nodes g, Gql_data.Graph.n_edges g)
                      in
                      let before = size () in
                      let stats =
                        Gql_wglog.Eval.run ~index:(Gql_core.Gql.index db)
                          ~copy_on_write:true g (Gql_core.Gql.parse_wglog source)
                      in
                      if size () <> before then
                        failwith "wrote into the loaded graph";
                      counts stats)
                in
                let eager = run loaded in
                match pair "wglog fixpoint" (run frozen) eager with
                | Some _ as d -> d
                | None -> (
                  match Result.map fst eager, shared loaded with
                  | a, b when a = b -> None
                  | _, Error e -> Some ("copy-on-write fixpoint: " ^ e)
                  | _ ->
                    Some "copy-on-write fixpoint differs from the eager fork"))
              | `Match | `Unknown ->
                let routes (db : Gql_core.Gql.db) =
                  let data = db.Gql_core.Gql.graph in
                  let route f =
                    capture (fun () ->
                        let q = Gql_core.Gql.parse_match source in
                        let c = Gql_match.Compile.compile q in
                        Gql_match.Eval.body data c (f c))
                  in
                  [
                    ("homo-scan", route (fun c -> Gql_match.Eval.bindings data c));
                    ( "homo-indexed",
                      route (fun c ->
                          Gql_match.Eval.bindings ~index:(Gql_core.Gql.index db)
                            data c) );
                    ( "algebra-greedy",
                      route (fun c ->
                          Gql_match.Eval.bindings_algebra
                            ~index:(Gql_core.Gql.index db) data c) );
                    ( "algebra-shuffled",
                      route (fun c ->
                          Gql_match.Eval.bindings_algebra ~planner:(shuffled_planner ~seed)
                            ~index:(Gql_core.Gql.index db) data c) );
                    ( "algebra-noindex",
                      route (fun c -> Gql_match.Eval.bindings_algebra data c) );
                  ]
                in
                List.find_map
                  (fun ((label, a), (_, b)) -> pair label a b)
                  (List.combine (routes frozen) (routes loaded))
            in
            match disagreement with Some msg -> Fail msg | None -> Pass)))
