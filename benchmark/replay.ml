(** The traced replay: a workload's request stream run in a child of the
    benchmark process, on one thread, through the server's own
    components — real [Registry], [Qcache], [Rcache] and [Pcache]
    instances — with a span around every layer call.

    [handle] follows [Gql_server.Server.handle_payload] step by step for
    the two requests the workloads send (RUN with an inline source, and
    LOAD), calling the layers' public functions where the server calls
    their wrappers: [Match.Eval.prepare] becomes compile, job and plan,
    [Xmlgl.Engine.run_program] becomes match, construct and print.  Each
    answer is judged against the expected bodies like a served one.
    This copy of the server's request path must follow the server's by
    hand until [Gql_server] offers a trace hook around its layer calls;
    then the replay can call [Server.handle_payload] itself. *)

open Fixtures
module S = Gql_server
module T = Trace

let s_request = T.id "request"
let s_setup = T.id "setup"
let s_parse_request = T.id "protocol.parse_request"
let s_render_response = T.id "protocol.render_response"
let s_lang_parse = T.id "lang.parse"
let s_qcache_find = T.id "qcache.find"
let s_rcache_find = T.id "rcache.find"
let s_pcache_find = T.id "pcache.find"
let s_match_compile = T.id "match.compile"
let s_match_job = T.id "match.job"
let s_algebra_plan = T.id "algebra.plan"
let s_algebra_exec = T.id "algebra.exec"
let s_match_render = T.id "match.render"
let s_xmlgl_match = T.id "xmlgl.match"
let s_xmlgl_construct = T.id "xmlgl.construct"
let s_xml_print = T.id "xml.print"
let s_registry_fork = T.id "registry.fork"
let s_wglog_fixpoint = T.id "wglog.fixpoint"
let s_xml_load = T.id "xml.load"
let s_index_build = T.id "index.build"
let s_store_load = T.id "store.load"

type state = {
  reg : S.Registry.t;
  qcache : S.Qcache.t;
  rcache : S.Rcache.t option;
  pcache : Gql_match.Eval.prepared S.Pcache.t;
}

let create ~rcache =
  let capacity = S.Server.default_config.query_cache in
  {
    reg = S.Registry.create ();
    qcache = S.Qcache.create ~capacity ();
    rcache = (if rcache > 0 then Some (S.Rcache.create ~capacity:rcache ()) else None);
    pcache = S.Pcache.create ~capacity ();
  }

(* --- loading: Registry.load_xml / load_snapshot ----------------------- *)

let install_xml st name xml =
  let key = "xml-" ^ Digest.to_hex (Digest.string xml) in
  match S.Registry.find_keyed st.reg name key with
  | Some snap -> snap
  | None ->
    let db = T.span s_xml_load (fun () -> Gql_core.Gql.load_xml_string xml) in
    T.note ~bytes:(String.length xml) ();
    let index =
      T.span s_index_build (fun () -> Gql_data.Index.build db.Gql_core.Gql.graph)
    in
    S.Registry.install st.reg name key db index

let install_file st file =
  let name = Filename.remove_extension file in
  if Filename.extension file = ".snap" then begin
    let key = Gql_data.Store.file_key file in
    let graph, index = T.span s_store_load (fun () -> Gql_data.Store.load ~path:file) in
    ignore (S.Registry.install st.reg name key (Gql_core.Gql.of_snapshot graph index) index)
  end
  else ignore (install_xml st name (In_channel.with_open_bin file In_channel.input_all))

let load st doc xml =
  let prior = S.Registry.find st.reg doc in
  let snap = install_xml st doc xml in
  (match prior with
  | Some p when p.S.Registry.version = snap.S.Registry.version -> ()
  | _ ->
    Option.iter (fun rc -> S.Rcache.purge_doc rc doc) st.rcache;
    S.Pcache.purge_doc st.pcache doc);
  S.Protocol.Ok_
    {
      info =
        Printf.sprintf "doc=%s version=%d nodes=%d edges=%d" snap.S.Registry.name
          snap.S.Registry.version snap.S.Registry.nodes snap.S.Registry.edges;
      body = "";
    }

(* --- evaluation: Server.evaluate with its wrappers opened ------------ *)

let plan_match st (snap : S.Registry.snapshot) (entry : S.Qcache.entry) q =
  let key =
    { S.Pcache.doc = snap.S.Registry.name; version = snap.S.Registry.version;
      qhash = entry.S.Qcache.hash }
  in
  match T.span s_pcache_find (fun () -> S.Pcache.find st.pcache key) with
  | Some prepared -> prepared
  | None ->
    let graph = snap.S.Registry.db.Gql_core.Gql.graph in
    let c = T.span s_match_compile (fun () -> Gql_match.Compile.compile q) in
    let job =
      T.span s_match_job (fun () -> Gql_match.Compile.job ~index:snap.S.Registry.index c)
    in
    let plan = T.span s_algebra_plan (fun () -> Gql_algebra.Planner.build ~strategy:`Cost graph job) in
    let prepared =
      { Gql_match.Eval.pr_compiled = c; pr_plan = plan;
        pr_provider = job.Gql_algebra.Planner.provider }
    in
    S.Pcache.add st.pcache key prepared;
    prepared

let evaluate st (snap : S.Registry.snapshot) (entry : S.Qcache.entry) =
  let domains = Gql_graph.Par.auto_domains () in
  let graph = snap.S.Registry.db.Gql_core.Gql.graph and index = snap.S.Registry.index in
  match entry.S.Qcache.prepared with
  | S.Qcache.Xmlgl p ->
    Gql_xmlgl.Engine.check_or_raise (Gql_xmlgl.Ast.check_program p);
    let children =
      List.concat_map
        (fun (r : Gql_xmlgl.Ast.rule) ->
          Gql_xmlgl.Engine.check_or_raise (Gql_xmlgl.Ast.check_rule r);
          let bindings =
            T.span s_xmlgl_match (fun () ->
                Gql_xmlgl.Matching.run ~index ~domains graph r.Gql_xmlgl.Ast.query)
          in
          T.note ~rows:(List.length bindings) ();
          T.span s_xmlgl_construct (fun () ->
              Gql_xmlgl.Construct.run graph r.Gql_xmlgl.Ast.construction bindings))
        p.Gql_xmlgl.Ast.rules
    in
    let body =
      T.span s_xml_print (fun () ->
          Gql_core.Gql.to_xml_string
            { Gql_xml.Tree.name = p.Gql_xmlgl.Ast.result_root; attrs = []; children })
    in
    T.note ~bytes:(String.length body) ();
    (Printf.sprintf "lang=xmlgl hits=%d" (List.length children), body)
  | S.Qcache.Wglog p ->
    let g = T.span s_registry_fork (fun () -> S.Registry.fork snap) in
    let stats = T.span s_wglog_fixpoint (fun () -> Gql_wglog.Eval.run ~domains g p) in
    ( Printf.sprintf "lang=wglog derived_edges=%d" stats.Gql_wglog.Eval.edges_added,
      S.Server.wglog_stats_line stats )
  | S.Qcache.Match q ->
    let p = plan_match st snap entry q in
    let embs =
      T.span s_algebra_exec (fun () ->
          Gql_algebra.Exec.run ?provider:p.Gql_match.Eval.pr_provider ~domains graph
            p.Gql_match.Eval.pr_compiled.Gql_match.Compile.pattern p.Gql_match.Eval.pr_plan)
    in
    let rows = List.length embs in
    T.note ~rows ();
    let body =
      T.span s_match_render (fun () -> Gql_match.Eval.body graph p.Gql_match.Eval.pr_compiled embs)
    in
    T.note ~bytes:(String.length body) ();
    (Printf.sprintf "lang=match rows=%d" rows, body)

let with_result_cache st snap entry eval =
  match st.rcache with
  | None -> eval ()
  | Some rc -> (
    let key = S.Server.cache_key snap entry "run" in
    match T.span s_rcache_find (fun () -> S.Rcache.find rc key) with
    | Some (info, body) -> ((if info = "" then "cached" else info ^ " cached"), body)
    | None ->
      let info, body = eval () in
      S.Rcache.add rc key ~info body;
      (info, body))

let run st ~started ~doc ~schema ~deadline_ms source =
  match S.Registry.find st.reg doc with
  | None -> S.Protocol.Err (Printf.sprintf "no document %S" doc)
  | Some snap -> (
    match T.span s_qcache_find (fun () -> S.Qcache.intern st.qcache ~schema source) with
    | Error msg -> S.Protocol.Err msg
    | Ok (entry, hit) ->
      if not hit then T.rename s_lang_parse;
      let elapsed_ms () = (Unix.gettimeofday () -. started) *. 1000.0 in
      let overdue () =
        match deadline_ms with Some d -> elapsed_ms () > d | None -> false
      in
      if overdue () then S.Protocol.Timeout { elapsed_ms = elapsed_ms () }
      else begin
        let info, body = with_result_cache st snap entry (fun () -> evaluate st snap entry) in
        if overdue () then S.Protocol.Timeout { elapsed_ms = elapsed_ms () }
        else S.Protocol.Ok_ { info = Printf.sprintf "%s ms=%.2f" info (elapsed_ms ()); body }
      end)

let handle st (payload : string) : string =
  let started = Unix.gettimeofday () in
  let response =
    try
      match T.span s_parse_request (fun () -> S.Protocol.parse_request payload) with
      | S.Protocol.Load { doc; xml } -> load st doc xml
      | S.Protocol.Run { doc; query = `Source source; schema; deadline_ms } ->
        run st ~started ~doc ~schema ~deadline_ms source
      | _ -> invalid_arg "the replay sends RUN and LOAD only"
    with e -> S.Protocol.Err (Printexc.to_string e)
  in
  let out = T.span s_render_response (fun () -> S.Protocol.render_response response) in
  T.note ~bytes:(String.length out) ();
  out

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type tally = { attempted : int; failed : int; wrong : int }

type pass = {
  wall : float;  (** seconds, not counting the judging of answers *)
  tally : tally;
  traced : (T.agg array * float) option;  (** span aggregates and summed self time *)
}

(** One replay from a fresh state: load [files] (the [setup] span),
    then every request under a [request] span.  A traced pass writes
    its spans to [jsonl]. *)
let pass ~traced ~files ~rcache ~jsonl (reqs : req array) : pass =
  T.reset ();
  Gc.compact ();
  T.on := traced;
  let t0 = Unix.gettimeofday () in
  T.request := -1;
  let st = create ~rcache in
  T.span s_setup (fun () -> List.iter (install_file st) files);
  let judging = ref 0.0 and failed = ref 0 and wrong = ref 0 in
  let variant = Hashtbl.create 4 in
  Array.iteri
    (fun i (r : req) ->
      T.request := i;
      (* as a pool worker does: hold one unit of the domain budget *)
      let out =
        Gql_graph.Par.charged (fun () -> T.span s_request (fun () -> handle st r.payload))
      in
      let c0 = Unix.gettimeofday () in
      let v = Option.value ~default:0 (Hashtbl.find_opt variant r.doc) in
      (match Served.judge r ~variants:[ v ] (S.Protocol.parse_response out) with
      | Served.Answered, _, _ -> if r.lang = Load then Hashtbl.replace variant r.doc (1 - v)
      | Served.Late, _, _ -> incr failed
      | (Served.Wrong | Served.Failed _), _, _ ->
        incr failed;
        incr wrong);
      judging := !judging +. (Unix.gettimeofday () -. c0))
    reqs;
  T.on := false;
  let wall = Unix.gettimeofday () -. t0 -. !judging in
  if traced then T.write_jsonl jsonl;
  {
    wall;
    tally = { attempted = Array.length reqs; failed = !failed; wrong = !wrong };
    traced = (if traced then Some (T.aggregate ()) else None);
  }

type result = {
  spans : T.agg array;  (** per {!Trace.names} entry, from the last traced pass *)
  overhead_frac : float;  (** traced over untraced wall time, minus one *)
  coverage : float;  (** summed self times over the traced pass's wall time *)
  tally : tally;  (** over all passes *)
}

(** A discarded warm-up pass, then untraced, traced, traced, untraced:
    the passes speed up as the heap settles, and this order cancels a
    steady drift out of the overhead estimate. *)
let replay ~files ~rcache ~jsonl reqs : result =
  let passes =
    List.map (fun traced -> pass ~traced ~files ~rcache ~jsonl reqs) [ false; false; true; true; false ]
  in
  let walls traced =
    List.fold_left ( +. ) 0.0
      (List.filter_map (fun p -> if (p.traced <> None) = traced then Some p.wall else None) (List.tl passes))
  in
  let last = List.nth passes 3 in
  let spans, self_s = Option.get last.traced in
  let sum f = List.fold_left (fun a (p : pass) -> a + f p.tally) 0 passes in
  {
    spans;
    overhead_frac = (walls true /. walls false) -. 1.0;
    coverage = self_s /. last.wall;
    tally =
      { attempted = sum (fun t -> t.attempted); failed = sum (fun t -> t.failed);
        wrong = sum (fun t -> t.wrong) };
  }
