(** The fuzz loop: generate, check, shrink, report.

    Case [i] of a run uses seed [base_seed + i], so any failure is
    addressable as a single integer regardless of how many cases ran
    before it — [gql fuzz --seed N --cases 1] replays exactly one.
    Each case fans out into one subcheck per (oracle, artifact) pair;
    a subcheck that fails is minimized with {!Shrink.minimize} against
    its own re-run closure and reported (and written to [out_dir] as a
    {!Corpus.repro} when one is given). *)

module Server = Gql_server.Server
module Client = Gql_server.Client

type config = {
  base_seed : int;
  cases : int;
  oracles : Oracle.name list;
  out_dir : string option;  (** where minimized repros are written *)
  log : string -> unit;
}

type failure = {
  seed : int;
  oracle : Oracle.name;
  detail : string;
  minimized_source : string;
  minimized_xml : string;
  repro_path : string option;
}

type outcome = { cases_run : int; checks_run : int; failures : failure list }

(* An oracle that dies is as much a bug as one that disagrees. *)
let guard (f : unit -> Oracle.verdict) : Oracle.verdict =
  try f () with
  | exn -> Oracle.Fail ("uncaught exception: " ^ Printexc.to_string exn)

let prog_parses (source : string) : bool =
  match Gql_core.Gql.language_of_source source with
  | `Xmlgl -> (
    match Gql_core.Gql.parse_xmlgl source with
    | _ -> true
    | exception _ -> false)
  | `Wglog -> (
    match Gql_core.Gql.parse_wglog source with
    | _ -> true
    | exception _ -> false)
  | `Match -> (
    match Gql_core.Gql.parse_match source with
    | _ -> true
    | exception _ -> false)
  | `Unknown -> false

let regex_parses (source : string) : bool =
  match Gql_lang.Label_re.parse source with
  | _ -> true
  | exception _ -> false

(* One subcheck: the artifacts it starts from and a closure that
   re-judges any candidate pair — the same closure drives both the
   initial verdict and the shrinker. *)
type check = {
  oracle : Oracle.name;
  xml : string;
  source : string;
  parses : string -> bool;
  rerun : xml:string -> source:string -> Oracle.verdict;
}

let checks_for ~(transport : (Oracle.transport * Server.t) option)
    ~(fresh_doc : unit -> string) (oracles : Oracle.name list)
    (c : Casegen.case) : check list =
  List.concat_map
    (fun oracle ->
      match oracle with
      | Oracle.Scan_vs_index ->
        List.map
          (fun source ->
            { oracle; xml = c.Casegen.xml; source; parses = prog_parses;
              rerun = (fun ~xml ~source -> Oracle.scan_vs_index ~xml ~source) })
          [ c.Casegen.xmlgl_src; c.Casegen.wglog_src ]
      | Oracle.Engine_vs_algebra ->
        [ { oracle; xml = c.Casegen.xml; source = c.Casegen.xmlgl_src;
            parses = prog_parses;
            rerun =
              (fun ~xml ~source ->
                Oracle.engine_vs_algebra ~seed:c.Casegen.seed ~xml ~source) } ]
      | Oracle.Digraph_vs_csr ->
        [ { oracle; xml = ""; source = c.Casegen.regex_src;
            parses = regex_parses;
            rerun =
              (fun ~xml:_ ~source ->
                Oracle.digraph_vs_csr ~graph_seed:c.Casegen.graph_seed
                  ~regex_src:source) } ]
      | Oracle.Direct_vs_served -> (
        match transport with
        | None -> []
        | Some (t, uncached) ->
          List.map
            (fun source ->
              { oracle; xml = c.Casegen.xml; source; parses = prog_parses;
                rerun =
                  (fun ~xml ~source ->
                    (* each candidate loads under a fresh name so no
                       stale snapshot or cached result can leak in *)
                    Oracle.direct_vs_served ~uncached ~seed:c.Casegen.seed t
                      ~doc_name:(fresh_doc ()) ~xml ~source) })
            [ c.Casegen.xmlgl_src; c.Casegen.wglog_src ])
      | Oracle.Seq_vs_par ->
        List.map
          (fun source ->
            { oracle; xml = c.Casegen.xml; source; parses = prog_parses;
              rerun = (fun ~xml ~source -> Oracle.seq_vs_par ~xml ~source) })
          [ c.Casegen.xmlgl_src; c.Casegen.wglog_src; c.Casegen.match_src ]
      | Oracle.Match_vs_algebra ->
        (* the in-process route comparison always runs; the served legs
           join in whenever the fuzz loop has a live server *)
        [ { oracle; xml = c.Casegen.xml; source = c.Casegen.match_src;
            parses = prog_parses;
            rerun =
              (fun ~xml ~source ->
                Oracle.match_vs_algebra (Option.map fst transport)
                  ~seed:c.Casegen.seed ~doc_name:(fresh_doc ())
                  ~xml ~source) } ]
      | Oracle.Loaded_vs_frozen ->
        (* one save/load round-trip per source language: the MATCH leg
           exercises all six routes, XML-GL and WG-Log the engines *)
        List.map
          (fun source ->
            { oracle; xml = c.Casegen.xml; source; parses = prog_parses;
              rerun =
                (fun ~xml ~source ->
                  Oracle.loaded_vs_frozen ~seed:c.Casegen.seed ~xml ~source) })
          [ c.Casegen.xmlgl_src; c.Casegen.wglog_src; c.Casegen.match_src ]
      )
    oracles

(* A one-worker server without a result cache, driven in-process: every
   RUN on it evaluates. *)
let uncached_server () =
  Server.create
    ~config:{ Server.default_config with workers = Some 1; result_cache = 0 }
    ()

(** Run [f] against a live server over a unix socket and an uncached
    in-process one; tear everything down afterwards even if [f]
    raises. *)
let with_served (f : Oracle.transport * Server.t -> 'a) : 'a =
  let config =
    { Server.default_config with workers = Some 2; result_cache = 64 }
  in
  let server = Server.create ~config () in
  let uncached = uncached_server () in
  let path = Filename.temp_file "gql-fuzz" ".sock" in
  Sys.remove path;
  let _listener = Server.listen server (Unix.ADDR_UNIX path) in
  let client = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () ->
      (try Client.close client with _ -> ());
      Server.stop server;
      Server.stop uncached;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      f (Oracle.socket_transport client, uncached))

let run (cfg : config) : outcome =
  let body transport : outcome =
    let doc_ctr = ref 0 in
    let fresh_doc () =
      incr doc_ctr;
      Printf.sprintf "fuzz%d" !doc_ctr
    in
    let failures = ref [] in
    let checks_run = ref 0 in
    for i = 0 to cfg.cases - 1 do
      let seed = cfg.base_seed + i in
      let case = Casegen.generate ~seed in
      List.iter
        (fun ch ->
          incr checks_run;
          match guard (fun () -> ch.rerun ~xml:ch.xml ~source:ch.source) with
          | Oracle.Pass -> ()
          | Oracle.Fail detail ->
            let still_fails ~xml ~source =
              match guard (fun () -> ch.rerun ~xml ~source) with
              | Oracle.Fail _ -> true
              | Oracle.Pass -> false
            in
            let xml, source =
              Shrink.minimize ~parses:ch.parses ~still_fails ~xml:ch.xml
                ~source:ch.source
            in
            let repro =
              { Corpus.seed; oracle = Oracle.to_string ch.oracle; detail;
                graph_seed = case.Casegen.graph_seed; source; xml }
            in
            let path =
              Option.map (fun dir -> Corpus.write ~dir repro) cfg.out_dir
            in
            cfg.log
              (Printf.sprintf "FAIL seed=%d oracle=%s: %s%s" seed
                 (Oracle.to_string ch.oracle) detail
                 (match path with Some p -> "\n  minimized repro: " ^ p | None -> ""));
            failures :=
              { seed; oracle = ch.oracle; detail; minimized_source = source;
                minimized_xml = xml; repro_path = path }
              :: !failures)
        (checks_for ~transport ~fresh_doc cfg.oracles case);
      if (i + 1) mod 1000 = 0 then
        cfg.log
          (Printf.sprintf "  %d/%d cases, %d checks, %d failure(s)" (i + 1)
             cfg.cases !checks_run
             (List.length !failures))
    done;
    { cases_run = cfg.cases; checks_run = !checks_run;
      failures = List.rev !failures }
  in
  if
    List.exists
      (fun o -> o = Oracle.Direct_vs_served || o = Oracle.Match_vs_algebra)
      cfg.oracles
  then with_served (fun t -> body (Some t))
  else body None

(** Re-judge a stored repro.  [direct-vs-served] replays against a
    fresh in-process server ({!Oracle.inproc_transport}) so corpus
    replay inside [dune runtest] needs no sockets. *)
let replay (r : Corpus.repro) : Oracle.verdict =
  match Oracle.of_string r.oracle with
  | None -> Oracle.Fail ("unknown oracle: " ^ r.oracle)
  | Some Oracle.Scan_vs_index ->
    guard (fun () -> Oracle.scan_vs_index ~xml:r.xml ~source:r.source)
  | Some Oracle.Engine_vs_algebra ->
    guard (fun () ->
        Oracle.engine_vs_algebra ~seed:r.seed ~xml:r.xml ~source:r.source)
  | Some Oracle.Digraph_vs_csr ->
    guard (fun () ->
        Oracle.digraph_vs_csr ~graph_seed:r.graph_seed ~regex_src:r.source)
  | Some Oracle.Seq_vs_par ->
    guard (fun () -> Oracle.seq_vs_par ~xml:r.xml ~source:r.source)
  | Some Oracle.Direct_vs_served ->
    let config = { Server.default_config with workers = Some 1 } in
    let server = Server.create ~config () in
    let uncached = uncached_server () in
    Fun.protect
      ~finally:(fun () -> Server.stop server; Server.stop uncached)
      (fun () ->
        guard (fun () ->
            Oracle.direct_vs_served ~uncached ~seed:r.seed
              (Oracle.inproc_transport server)
              ~doc_name:"repro" ~xml:r.xml ~source:r.source))
  | Some Oracle.Match_vs_algebra ->
    let config = { Server.default_config with workers = Some 1 } in
    let server = Server.create ~config () in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        guard (fun () ->
            Oracle.match_vs_algebra
              (Some (Oracle.inproc_transport server))
              ~seed:r.seed ~doc_name:"repro" ~xml:r.xml ~source:r.source))
  | Some Oracle.Loaded_vs_frozen ->
    guard (fun () ->
        Oracle.loaded_vs_frozen ~seed:r.seed ~xml:r.xml ~source:r.source)
