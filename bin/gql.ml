(* The command-line face of the library.

     gql run      -d data.xml query.gql        evaluate a query file
     gql validate -d data.xml [--dtd f.dtd]    DTD / embedded-DTD validation
     gql render   query.gql -o out.svg         draw a rule like the paper
     gql explain  -d data.xml query.gql        show the physical plan
     gql matrix                                the expressiveness table
     gql stats    -d data.xml                  data-graph statistics
     gql serve    --socket /tmp/gql.sock       resident query service
     gql client   --socket /tmp/gql.sock ...   talk to a running service

   Query files start with a header line: `xmlgl` or `wglog`. *)

open Cmdliner

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

let language_of = Gql_core.Gql.language_of_source

(* A snapshot file starts with the store magic; anything shorter or
   different is treated as XML. *)
let is_snapshot_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic 8 with
        | magic -> magic = "GQLSNAP1"
        | exception End_of_file -> false)

(* --- common args -------------------------------------------------------- *)

let data_arg =
  let doc = "XML document to load as the database." in
  Arg.(value & opt (some file) None & info [ "d"; "data" ] ~docv:"FILE" ~doc)

let query_arg =
  let doc = "Query file (textual XML-GL or WG-Log; header line selects)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY" ~doc)

let out_arg =
  let doc = "Output file." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let require_db data =
  match data with
  | Some f -> Gql_core.Gql.load_xml_file f
  | None -> failwith "this command needs --data FILE"

let wrap f =
  try f (); 0 with
  | Gql_core.Gql.Error msg | Failure msg ->
    prerr_endline ("error: " ^ msg);
    1
  | Gql_wglog.Eval.Invalid_query msg | Gql_xmlgl.Construct.Invalid_query msg ->
    prerr_endline ("error: invalid query: " ^ msg);
    1
  | Gql_xmlgl.Engine.Ill_formed errs ->
    prerr_endline ("error: invalid query: " ^ String.concat "; " errs);
    1
  | Gql_match.Parse.Error msg | Gql_match.Compile.Error msg ->
    prerr_endline ("error: invalid query: " ^ msg);
    1
  | Gql_xpath.Eval.Eval_error msg ->
    prerr_endline ("error: XPath: " ^ msg);
    1
  | Gql_xml.Parser.Error (msg, pos) ->
    Printf.eprintf "error: XML %d:%d: %s\n" pos.Gql_xml.Parser.line
      pos.Gql_xml.Parser.col msg;
    1
  | Gql_data.Store.Invalid_snapshot _ as e ->
    prerr_endline ("error: " ^ Gql_data.Store.describe e);
    1

(* --- run ----------------------------------------------------------------- *)

let run_cmd =
  let domains_arg =
    let doc =
      "Evaluate on $(docv) OCaml domains (results are byte-identical to \
       sequential evaluation; overrides \\$GQL_DOMAINS)."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let par_cutoff_arg =
    let doc =
      "Work-size cutoff for parallel evaluation: jobs whose cost estimate \
       (candidates x pattern size) is below $(docv) run sequentially even \
       when --domains asks for more.  0 disables gating.  Overrides \
       \\$GQL_PAR_CUTOFF; default 65536."
    in
    Arg.(value & opt (some int) None & info [ "par-cutoff" ] ~docv:"COST" ~doc)
  in
  let action data query out domains par_cutoff =
    wrap (fun () ->
        Option.iter Gql_graph.Par.set_default domains;
        Option.iter Gql_graph.Par.set_cutoff par_cutoff;
        let source = read_file query in
        match language_of source with
        | `Xmlgl ->
          let db = require_db data in
          let result = Gql_core.Gql.run_xmlgl_text db source in
          let text = Gql_core.Gql.to_xml_string result in
          (match out with
          | Some f ->
            write_file f text;
            Printf.printf "wrote %s\n" f
          | None -> print_string text)
        | `Wglog ->
          let db = require_db data in
          let stats = Gql_core.Gql.run_wglog_text db source in
          Printf.printf
            "fixpoint reached: %d rounds, %d embeddings, +%d nodes, +%d edges\n"
            stats.Gql_wglog.Eval.rounds stats.embeddings_found stats.nodes_added
            stats.edges_added;
          (match out with
          | Some f ->
            write_file f (Gql_data.Graph.to_dot db.Gql_core.Gql.graph);
            Printf.printf "wrote saturated graph to %s (DOT)\n" f
          | None -> ())
        | `Match ->
          let db = require_db data in
          let body, _rows = Gql_core.Gql.run_match_text db source in
          (match out with
          | Some f ->
            write_file f body;
            Printf.printf "wrote %s\n" f
          | None -> print_string body)
        | `Unknown ->
          failwith "query file must start with 'xmlgl', 'wglog' or 'match'")
  in
  let info = Cmd.info "run" ~doc:"Evaluate a graphical query against a database." in
  Cmd.v info
    Term.(
      const action $ data_arg $ query_arg $ out_arg $ domains_arg
      $ par_cutoff_arg)

(* --- validate ------------------------------------------------------------- *)

let validate_cmd =
  let dtd_arg =
    let doc = "External DTD file (otherwise the DOCTYPE internal subset)." in
    Arg.(value & opt (some file) None & info [ "dtd" ] ~docv:"FILE" ~doc)
  in
  let action data dtd =
    wrap (fun () ->
        let dtd =
          Option.map (fun f -> Gql_dtd.Parse.parse_subset (read_file f)) dtd
        in
        let db =
          match data with
          | Some f -> Gql_core.Gql.load_xml_file ?dtd f
          | None -> failwith "validate needs --data FILE"
        in
        let violations = Gql_core.Gql.validate_dtd db in
        if violations = [] then print_endline "valid"
        else begin
          List.iter
            (fun v -> print_endline (Gql_dtd.Validate.pp_violation v))
            violations;
          Printf.printf "%d violation(s)\n" (List.length violations)
        end)
  in
  let info = Cmd.info "validate" ~doc:"Validate a document against its DTD." in
  Cmd.v info Term.(const action $ data_arg $ dtd_arg)

(* --- render ----------------------------------------------------------------- *)

let render_cmd =
  let ascii_arg =
    let doc = "Render to the terminal instead of SVG." in
    Arg.(value & flag & info [ "ascii" ] ~doc)
  in
  let action query out ascii =
    wrap (fun () ->
        let source = read_file query in
        let diagrams =
          match language_of source with
          | `Xmlgl ->
            let p = Gql_core.Gql.parse_xmlgl source in
            List.mapi
              (fun i r ->
                Gql_core.Gql.rule_diagram_xmlgl
                  ~title:(Printf.sprintf "rule %d" (i + 1)) r)
              p.Gql_xmlgl.Ast.rules
          | `Wglog ->
            let p = Gql_core.Gql.parse_wglog source in
            List.mapi
              (fun i r ->
                Gql_core.Gql.rule_diagram_wglog
                  ~title:(Printf.sprintf "rule %d" (i + 1)) r)
              p.Gql_wglog.Ast.rules
          | `Match -> failwith "render supports the visual languages (XML-GL, WG-Log)"
          | `Unknown -> failwith "query file must start with 'xmlgl', 'wglog' or 'match'"
        in
        if ascii then
          List.iter (fun d -> print_string (Gql_core.Gql.render_ascii d)) diagrams
        else begin
          let base = Option.value out ~default:(Filename.remove_extension query ^ ".svg") in
          List.iteri
            (fun i d ->
              let path =
                if List.length diagrams = 1 then base
                else
                  Printf.sprintf "%s.%d.svg" (Filename.remove_extension base) (i + 1)
              in
              Gql_core.Gql.save_svg path d;
              Printf.printf "wrote %s\n" path)
            diagrams
        end)
  in
  let info = Cmd.info "render" ~doc:"Draw the rules of a query as the paper does." in
  Cmd.v info Term.(const action $ query_arg $ out_arg $ ascii_arg)

(* --- explain ----------------------------------------------------------------- *)

let explain_cmd =
  let action data query =
    wrap (fun () ->
        let source = read_file query in
        match language_of source with
        | `Xmlgl ->
          let db = require_db data in
          print_string (Gql_core.Gql.explain_xmlgl db (Gql_core.Gql.parse_xmlgl source))
        | `Wglog ->
          let db = require_db data in
          print_string (Gql_core.Gql.explain_wglog db (Gql_core.Gql.parse_wglog source))
        | `Match ->
          let db = require_db data in
          print_string (Gql_core.Gql.explain_match db (Gql_core.Gql.parse_match source))
        | `Unknown ->
          failwith "query file must start with 'xmlgl', 'wglog' or 'match'")
  in
  let info = Cmd.info "explain" ~doc:"Show the physical plan for a query." in
  Cmd.v info Term.(const action $ data_arg $ query_arg)

(* --- xpath ----------------------------------------------------------------- *)

let xpath_cmd =
  let expr_arg =
    let doc = "XPath expression." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc)
  in
  let action data expr =
    wrap (fun () ->
        let db = require_db data in
        match Gql_xpath.Parse.expr expr with
        | exception Gql_xpath.Parse.Error (msg, pos) ->
          failwith (Printf.sprintf "XPath offset %d: %s" pos msg)
        | e -> (
          let idx = Lazy.force db.Gql_core.Gql.xpath_index in
          match Gql_xpath.Eval.eval_expr idx e with
          | Gql_xpath.Eval.Nodeset ns ->
            Printf.printf "%d node(s)\n" (List.length ns);
            List.iter
              (fun n ->
                print_endline
                  (Gql_xml.Printer.node_to_string (Gql_xpath.Index.to_tree idx n)))
              ns
          | Gql_xpath.Eval.Str s -> print_endline s
          | Gql_xpath.Eval.Num f -> Printf.printf "%g\n" f
          | Gql_xpath.Eval.Bool b -> Printf.printf "%b\n" b))
  in
  let info = Cmd.info "xpath" ~doc:"Evaluate an XPath expression (the navigational baseline)." in
  Cmd.v info Term.(const action $ data_arg $ expr_arg)

(* --- matrix / stats ------------------------------------------------------------ *)

let matrix_cmd =
  let action () =
    print_string (Gql_core.Expressiveness.matrix_to_string ());
    0
  in
  let info = Cmd.info "matrix" ~doc:"Print the language expressiveness matrix." in
  Cmd.v info Term.(const action $ const ())

let stats_cmd =
  let action data =
    wrap (fun () ->
        let db = require_db data in
        let nodes, edges = Gql_core.Gql.stats db in
        Printf.printf "graph: %d nodes, %d edges\n" nodes edges;
        match db.Gql_core.Gql.dtd with
        | Some dtd ->
          Printf.printf "DTD: %d element declarations\n"
            (List.length dtd.Gql_dtd.Ast.elements)
        | None -> print_endline "DTD: none")
  in
  let info = Cmd.info "stats" ~doc:"Database statistics." in
  Cmd.v info Term.(const action $ data_arg)

(* --- serve ----------------------------------------------------------------- *)

let socket_arg =
  let doc = "Unix-domain socket path to listen/connect on." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let host_arg =
  let doc = "TCP host." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let port_arg =
  let doc = "TCP port to listen/connect on." in
  Arg.(value & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let workers_arg =
    let doc = "Worker domains (default: hardware-sized)." in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Default per-query deadline in milliseconds." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS" ~doc)
  in
  let rcache_arg =
    let doc = "Result-cache capacity (0 disables)." in
    Arg.(value & opt int 256 & info [ "rcache" ] ~docv:"N" ~doc)
  in
  let preload_arg =
    let doc =
      "XML or snapshot file(s) to pre-load; each is registered under its \
       base name (data/bibliography.xml -> 'bibliography').  Snapshot \
       files (saved with $(b,gql snapshot save)) are recognised by their \
       magic and mapped directly — no re-parse, no re-freeze.  Repeatable."
    in
    Arg.(value & opt_all file [] & info [ "d"; "data" ] ~docv:"FILE" ~doc)
  in
  let run_domains_arg =
    let doc =
      "Domains per RUN evaluation.  Default: auto — a single large RUN \
       borrows the capacity idle workers leave unused, and a burst of \
       clients degrades to one domain per request instead of \
       oversubscribing the machine."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let action socket port host workers deadline rcache run_domains preload =
    wrap (fun () ->
        if socket = None && port = None then
          failwith "serve needs --socket PATH and/or --port PORT";
        let config =
          {
            Gql_server.Server.default_config with
            workers;
            default_deadline_ms = deadline;
            result_cache = rcache;
            run_domains;
          }
        in
        let server = Gql_server.Server.create ~config () in
        List.iter
          (fun file ->
            let name = Filename.remove_extension (Filename.basename file) in
            let registry = Gql_server.Server.registry server in
            let loaded =
              if is_snapshot_file file then
                Gql_server.Registry.load_snapshot registry ~name file
              else Gql_server.Registry.load_xml registry ~name (read_file file)
            in
            match loaded with
            | Ok snap ->
              Printf.printf "loaded %s (v%d, %d nodes, %d edges)\n%!" name
                snap.Gql_server.Registry.version snap.Gql_server.Registry.nodes
                snap.Gql_server.Registry.edges
            | Error msg -> failwith (Printf.sprintf "loading %s: %s" file msg))
          preload;
        let listeners =
          (match socket with
          | Some path ->
            let l =
              Gql_server.Server.listen server (Unix.ADDR_UNIX path)
            in
            Printf.printf "listening on unix socket %s\n%!" path;
            [ l ]
          | None -> [])
          @
          match port with
          | Some p ->
            let l =
              Gql_server.Server.listen server
                (Unix.ADDR_INET (Unix.inet_addr_of_string host, p))
            in
            Printf.printf "listening on %s:%d\n%!" host p;
            [ l ]
          | None -> []
        in
        Printf.printf "%d worker domain(s); ctrl-C to stop\n%!"
          (Gql_server.Server.workers server);
        List.iter Gql_server.Server.wait listeners)
  in
  let info = Cmd.info "serve" ~doc:"Serve queries over frozen document snapshots." in
  Cmd.v info
    Term.(
      const action $ socket_arg $ port_arg $ host_arg $ workers_arg
      $ deadline_arg $ rcache_arg $ run_domains_arg $ preload_arg)

(* --- snapshot --------------------------------------------------------------- *)

let snapshot_cmd =
  let file_pos =
    let doc = "Snapshot file." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let save_cmd =
    let out_arg =
      let doc = "Snapshot file to write." in
      Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
    in
    let action data out =
      wrap (fun () ->
          let db = require_db data in
          let t0 = Unix.gettimeofday () in
          let index = Gql_core.Gql.index db in
          let freeze_ms = (Unix.gettimeofday () -. t0) *. 1000. in
          let t1 = Unix.gettimeofday () in
          let bytes = Gql_data.Store.save ~path:out index in
          let save_ms = (Unix.gettimeofday () -. t1) *. 1000. in
          Printf.printf "saved %s: %d bytes (freeze %.1f ms, save %.1f ms)\n"
            out bytes freeze_ms save_ms)
    in
    let info =
      Cmd.info "save"
        ~doc:"Freeze the document's index and write it as a snapshot file."
    in
    Cmd.v info Term.(const action $ data_arg $ out_arg)
  in
  let load_cmd =
    let action file =
      wrap (fun () ->
          let t0 = Unix.gettimeofday () in
          let db = Gql_core.Gql.load_snapshot_file file in
          let load_ms = (Unix.gettimeofday () -. t0) *. 1000. in
          let nodes, edges = Gql_core.Gql.stats db in
          Printf.printf "loaded %s: %d nodes, %d edges (%.1f ms)\n" file nodes
            edges load_ms)
    in
    let info =
      Cmd.info "load"
        ~doc:"Load a snapshot file (validates checksums) and print its size."
    in
    Cmd.v info Term.(const action $ file_pos)
  in
  let info_cmd =
    let action file =
      wrap (fun () ->
          let i = Gql_data.Store.validate file in
          Printf.printf "file     %s\nformat   %d\nbytes    %d\nnodes    %d\nedges    %d\nsymbols  %d\nsections %d\n"
            file i.Gql_data.Store.info_format i.Gql_data.Store.info_bytes
            i.Gql_data.Store.info_nodes i.Gql_data.Store.info_edges
            i.Gql_data.Store.info_syms
            (List.length i.Gql_data.Store.info_sections);
          List.iter
            (fun (name, off, elems) ->
              Printf.printf "  %-12s off=%-10d elems=%d\n" name off elems)
            i.Gql_data.Store.info_sections)
    in
    let info =
      Cmd.info "info"
        ~doc:"Validate a snapshot file and print its header and section table."
    in
    Cmd.v info Term.(const action $ file_pos)
  in
  let info =
    Cmd.info "snapshot"
      ~doc:
        "Persistent snapshots of the frozen index: save once, map back in \
         milliseconds."
  in
  Cmd.group info [ save_cmd; load_cmd; info_cmd ]

(* --- fuzz ------------------------------------------------------------------ *)

let fuzz_cmd =
  let seed_arg =
    let doc =
      "Base seed.  Case $(i,i) of a run uses seed $(i,BASE+i), so a reported \
       failing seed replays alone with --seed N --cases 1."
    in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let cases_arg =
    let doc = "Number of cases to generate." in
    Arg.(value & opt int 1000 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let oracle_arg =
    let doc =
      "Oracle to run: scan-vs-index, digraph-vs-csr, engine-vs-algebra, \
       direct-vs-served, seq-vs-par, match-vs-algebra or \
       loaded-vs-frozen.  Repeatable; default is all seven."
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"NAME" ~doc)
  in
  let out_arg =
    let doc = "Directory to write minimized .repro files into." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let action seed cases oracle_names out_dir =
    wrap (fun () ->
        let oracles =
          match oracle_names with
          | [] -> Gql_fuzz.Oracle.all
          | names ->
            List.map
              (fun n ->
                match Gql_fuzz.Oracle.of_string n with
                | Some o -> o
                | None -> failwith (Printf.sprintf "unknown oracle %S" n))
              names
        in
        let cfg =
          {
            Gql_fuzz.Driver.base_seed = seed;
            cases;
            oracles;
            out_dir;
            log = (fun line -> Printf.printf "%s\n%!" line);
          }
        in
        let outcome = Gql_fuzz.Driver.run cfg in
        Printf.printf "%d case(s), %d check(s), %d failure(s)\n%!"
          outcome.Gql_fuzz.Driver.cases_run outcome.Gql_fuzz.Driver.checks_run
          (List.length outcome.Gql_fuzz.Driver.failures);
        match outcome.Gql_fuzz.Driver.failures with
        | [] -> ()
        | f :: _ ->
          failwith
            (Printf.sprintf "first failure: seed=%d oracle=%s (%s)"
               f.Gql_fuzz.Driver.seed
               (Gql_fuzz.Oracle.to_string f.Gql_fuzz.Driver.oracle)
               f.Gql_fuzz.Driver.detail))
  in
  let info =
    Cmd.info "fuzz"
      ~doc:
        "Differential fuzzing: random documents and programs checked across \
         redundant evaluation paths."
  in
  Cmd.v info Term.(const action $ seed_arg $ cases_arg $ oracle_arg $ out_arg)

(* --- client ----------------------------------------------------------------- *)

let client_cmd =
  let words_arg =
    let doc =
      "Command and arguments: load DOC FILE | prepare NAME FILE | run DOC \
       QUERY | explain DOC QUERY | stats DOC | metrics | ping.  QUERY is a \
       file path (sent as source) or a PREPAREd name."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"CMD" ~doc)
  in
  let schema_arg =
    let doc = "WG-Log schema tag for prepare/run (restaurant|hyperdoc)." in
    Arg.(value & opt (some string) None & info [ "schema" ] ~docv:"S" ~doc)
  in
  let deadline_arg =
    let doc = "Per-query deadline in milliseconds (run only)." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS" ~doc)
  in
  let action socket port host schema deadline_ms words =
    wrap (fun () ->
        let c =
          match socket, port with
          | Some path, _ -> Gql_server.Client.connect_unix path
          | None, Some p -> Gql_server.Client.connect_tcp ~host ~port:p
          | None, None -> failwith "client needs --socket PATH or --port PORT"
        in
        Fun.protect
          ~finally:(fun () -> Gql_server.Client.close c)
          (fun () ->
            let query_ref q =
              if Sys.file_exists q then `Source (read_file q) else `Named q
            in
            let result =
              match words with
              | [ "load"; doc; file ] ->
                Gql_server.Client.load c ~doc (read_file file)
              | [ "prepare"; name; file ] ->
                Gql_server.Client.prepare c ~name ?schema (read_file file)
              | [ "run"; doc; q ] ->
                Gql_server.Client.run c ~doc ?schema ?deadline_ms (query_ref q)
              | [ "explain"; doc; q ] ->
                Gql_server.Client.explain c ~doc (query_ref q)
              | [ "stats"; doc ] -> Gql_server.Client.stats c ~doc
              | [ "metrics" ] -> Gql_server.Client.metrics c
              | [ "ping" ] -> Gql_server.Client.ping c
              | _ -> failwith "bad client command (see --help)"
            in
            match result with
            | Ok (info, body) ->
              if info <> "" then Printf.eprintf "OK %s\n%!" info;
              print_string body
            | Error msg -> failwith msg))
  in
  let info = Cmd.info "client" ~doc:"Send one command to a running gql server." in
  Cmd.v info
    Term.(
      const action $ socket_arg $ port_arg $ host_arg $ schema_arg
      $ deadline_arg $ words_arg)

let () =
  let info =
    Cmd.info "gql" ~version:"1.0"
      ~doc:"Graphical query languages for semi-structured information (EDBT 2000 reproduction)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; validate_cmd; render_cmd; explain_cmd; xpath_cmd; matrix_cmd;
            stats_cmd; serve_cmd; client_cmd; fuzz_cmd; snapshot_cmd ]))
