(* The fuzzer's regression loop: every minimized repro in corpus/ is
   replayed on each test run, so once the fuzzer has caught a bug it
   can never quietly come back.  A bounded deterministic smoke run and
   a determinism check keep the harness itself honest. *)

module Casegen = Gql_fuzz.Casegen
module Oracle = Gql_fuzz.Oracle
module Corpus = Gql_fuzz.Corpus
module Driver = Gql_fuzz.Driver

let corpus_dir = "corpus"

let corpus_files () =
  if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
    |> List.map (Filename.concat corpus_dir)
  else []

let test_corpus_present () =
  let files = corpus_files () in
  Alcotest.(check bool)
    "at least the three seeded crash-path repros" true
    (List.length files >= 3)

(* Re-judge a stored repro.  [direct-vs-served] and [match-vs-algebra]
   replay against fresh in-process servers ({!Oracle.inproc_transport}),
   so corpus replay needs no sockets; an oracle that dies fails. *)
let replay (r : Corpus.repro) : Oracle.verdict =
  let module Server = Gql_server.Server in
  let server ?(result_cache = Server.default_config.result_cache) () =
    Server.create
      ~config:{ Server.default_config with workers = Some 1; result_cache }
      ()
  in
  let guard f =
    try f () with
    | exn -> Oracle.Fail ("uncaught exception: " ^ Printexc.to_string exn)
  in
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
    let served = server () and uncached = server ~result_cache:0 () in
    Fun.protect
      ~finally:(fun () -> Server.stop served; Server.stop uncached)
      (fun () ->
        guard (fun () ->
            Oracle.direct_vs_served ~uncached ~seed:r.seed
              (Oracle.inproc_transport served)
              ~doc_name:"repro" ~xml:r.xml ~source:r.source))
  | Some Oracle.Match_vs_algebra ->
    let served = server () in
    Fun.protect
      ~finally:(fun () -> Server.stop served)
      (fun () ->
        guard (fun () ->
            Oracle.match_vs_algebra
              (Some (Oracle.inproc_transport served))
              ~seed:r.seed ~doc_name:"repro" ~xml:r.xml ~source:r.source))
  | Some Oracle.Loaded_vs_frozen ->
    guard (fun () ->
        Oracle.loaded_vs_frozen ~seed:r.seed ~xml:r.xml ~source:r.source)

let test_replay_corpus () =
  List.iter
    (fun path ->
      let r = Corpus.parse (In_channel.with_open_bin path In_channel.input_all) in
      match replay r with
      | Oracle.Pass -> ()
      | Oracle.Fail detail ->
        Alcotest.failf "%s replays red: %s" path detail)
    (corpus_files ())

(* The corpus parser must read back exactly what the writer produced,
   or a minimized repro would mutate on its way into the corpus. *)
let test_corpus_roundtrip () =
  let r =
    {
      Corpus.seed = 42;
      oracle = "scan-vs-index";
      detail = "something disagreed";
      graph_seed = 7;
      source = "xmlgl\nresult result\nrule\nquery\n  node $q0 elem a\nend";
      xml = "<a id=\"n1\">1</a>";
    }
  in
  let r' = Corpus.parse (Corpus.render r) in
  Alcotest.(check int) "seed" r.Corpus.seed r'.Corpus.seed;
  Alcotest.(check string) "oracle" r.Corpus.oracle r'.Corpus.oracle;
  Alcotest.(check string) "detail" r.Corpus.detail r'.Corpus.detail;
  Alcotest.(check int) "graph_seed" r.Corpus.graph_seed r'.Corpus.graph_seed;
  Alcotest.(check string) "source" r.Corpus.source r'.Corpus.source;
  Alcotest.(check string) "xml" r.Corpus.xml r'.Corpus.xml

(* A small deterministic run over every oracle: the generators only
   emit well-formed programs, so all redundant paths must agree. *)
let test_smoke_all_oracles () =
  let cfg =
    {
      Driver.base_seed = 20260806;
      cases = 20;
      oracles = Oracle.all;
      out_dir = None;
      log = ignore;
    }
  in
  let outcome = Driver.run cfg in
  Alcotest.(check int) "cases" 20 outcome.Driver.cases_run;
  (match outcome.Driver.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "seed=%d oracle=%s: %s" f.Driver.seed
      (Oracle.to_string f.Driver.oracle)
      f.Driver.detail);
  Alcotest.(check bool)
    "every oracle contributed checks" true
    (outcome.Driver.checks_run >= 20 * 4)

(* Same seed, same case — byte for byte.  This is the property that
   makes a failure report (just a seed and an oracle name) a repro. *)
let test_generation_deterministic () =
  for seed = 1 to 10 do
    let a = Casegen.generate ~seed and b = Casegen.generate ~seed in
    Alcotest.(check string) "xml" a.Casegen.xml b.Casegen.xml;
    Alcotest.(check string) "xmlgl" a.Casegen.xmlgl_src b.Casegen.xmlgl_src;
    Alcotest.(check string) "wglog" a.Casegen.wglog_src b.Casegen.wglog_src;
    Alcotest.(check int) "graph_seed" a.Casegen.graph_seed b.Casegen.graph_seed;
    Alcotest.(check string) "regex" a.Casegen.regex_src b.Casegen.regex_src
  done

(* Generated artifacts must round-trip through the textual parsers:
   the served path re-parses the printed program, so a print/parse
   mismatch would show up as a spurious oracle failure. *)
let test_generated_programs_parse () =
  for seed = 1 to 25 do
    let c = Casegen.generate ~seed in
    (match Gql_core.Gql.parse_xmlgl c.Casegen.xmlgl_src with
    | _ -> ()
    | exception exn ->
      Alcotest.failf "seed %d xmlgl does not re-parse: %s" seed
        (Printexc.to_string exn));
    (match Gql_core.Gql.parse_wglog c.Casegen.wglog_src with
    | _ -> ()
    | exception exn ->
      Alcotest.failf "seed %d wglog does not re-parse: %s" seed
        (Printexc.to_string exn));
    match Gql_lang.Label_re.parse c.Casegen.regex_src with
    | _ -> ()
    | exception exn ->
      Alcotest.failf "seed %d regex does not re-parse: %s" seed
        (Printexc.to_string exn)
  done

(* The shrinker against a synthetic failure: only one subtree of the
   document and one line of the query matter, and greedy minimization
   must strip everything else while keeping the query parseable. *)
let test_shrinker_minimizes () =
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  let xml =
    "<root><keep>1</keep><a><b>2</b><c>3</c></a><d><e>4</e></d></root>"
  in
  let source =
    "xmlgl\nresult result\nrule\nquery\n  node $q0 elem keep\n\
     \  node $q1 elem a\nconstruct\n  node c0 new out\n  root c0\nend"
  in
  let still_fails ~xml ~source =
    contains ~needle:"<keep>" xml && contains ~needle:"elem keep" source
  in
  let parses s =
    match Gql_core.Gql.parse_xmlgl s with _ -> true | exception _ -> false
  in
  let xml', source' = Gql_fuzz.Shrink.minimize ~parses ~still_fails ~xml ~source in
  Alcotest.(check bool) "doc failure preserved" true (contains ~needle:"<keep>" xml');
  Alcotest.(check bool) "doc shrank" true (not (contains ~needle:"<b>" xml'));
  Alcotest.(check bool) "unneeded subtree gone" true (not (contains ~needle:"<e>" xml'));
  Alcotest.(check bool) "query failure preserved" true
    (contains ~needle:"elem keep" source');
  Alcotest.(check bool) "unneeded query line gone" true
    (not (contains ~needle:"elem a" source'));
  Alcotest.(check bool) "minimized query still parses" true (parses source')

let () =
  Alcotest.run "fuzz_corpus"
    [
      ( "corpus",
        [
          Alcotest.test_case "present" `Quick test_corpus_present;
          Alcotest.test_case "replays green" `Quick test_replay_corpus;
          Alcotest.test_case "roundtrip" `Quick test_corpus_roundtrip;
        ] );
      ( "harness",
        [
          Alcotest.test_case "smoke all oracles" `Quick test_smoke_all_oracles;
          Alcotest.test_case "deterministic" `Quick
            test_generation_deterministic;
          Alcotest.test_case "programs parse" `Quick
            test_generated_programs_parse;
          Alcotest.test_case "shrinker minimizes" `Quick test_shrinker_minimizes;
        ] );
    ]
