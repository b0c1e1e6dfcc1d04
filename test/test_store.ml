(* The persistent snapshot store: freeze -> save -> load must be
   observationally identical to the freshly frozen index for every
   engine and every MATCH route, corrupt files must be rejected with a
   typed error naming the offending section, and re-loading identical
   content must reuse the existing registry snapshot (version
   unchanged, caches warm). *)

module Store = Gql_data.Store
module Registry = Gql_server.Registry

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let docs =
  [
    ("bibliography", lazy (Gql_workload.Gen.bibliography ~seed:81 40));
    ("people", lazy (Gql_workload.Gen.people ~seed:82 60));
    ("greengrocer", lazy (Gql_workload.Gen.greengrocer ~seed:83 80));
  ]

let xml_of name =
  Gql_xml.Printer.to_string (Lazy.force (List.assoc name docs))

(* Save [db]'s frozen index to a fresh temp file; caller removes it. *)
let save_db (db : Gql_core.Gql.db) : string =
  let path = Filename.temp_file "gql-store" ".snap" in
  ignore (Store.save ~path (Gql_core.Gql.index db));
  path

let with_roundtrip name (f : Gql_core.Gql.db -> Gql_core.Gql.db -> unit) =
  let frozen = Gql_core.Gql.load_xml_string (xml_of name) in
  let path = save_db frozen in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f frozen (Gql_core.Gql.load_snapshot_file path))

(* --- identity across engines and routes ------------------------------- *)

let test_xmlgl_identity () =
  List.iter
    (fun (q : Gql_workload.Queries.server_query) ->
      match Gql_core.Gql.language_of_source q.source with
      | `Xmlgl when List.mem_assoc q.doc docs ->
        with_roundtrip q.doc (fun frozen loaded ->
            let run db =
              Gql_core.Gql.to_xml_string (Gql_core.Gql.run_xmlgl_text db q.source)
            in
            check (q.sq_name ^ " identical") (run frozen) (run loaded))
      | _ -> ())
    Gql_workload.Queries.server_suite

let test_match_routes_identity () =
  List.iter
    (fun (q : Gql_workload.Queries.server_query) ->
      match Gql_core.Gql.language_of_source q.source with
      | `Match when List.mem_assoc q.doc docs ->
        with_roundtrip q.doc (fun frozen loaded ->
            let routes (db : Gql_core.Gql.db) =
              let data = db.Gql_core.Gql.graph in
              let c =
                Gql_match.Compile.compile (Gql_core.Gql.parse_match q.source)
              in
              let body f =
                let embs = f c in
                let b = Gql_match.Eval.body data c embs in
                check (q.sq_name ^ " reference render")
                  (Gql_fuzz.Oracle.reference_body data c embs) b;
                b
              in
              [
                ("homo-scan", body (fun c -> Gql_match.Eval.bindings data c));
                ( "homo-indexed",
                  body (fun c ->
                      Gql_match.Eval.bindings ~index:(Gql_core.Gql.index db)
                        data c) );
                ( "algebra-greedy",
                  body (fun c ->
                      Gql_match.Eval.bindings_algebra
                        ~index:(Gql_core.Gql.index db) data c) );
                ( "algebra-shuffled",
                  body (fun c ->
                      Gql_match.Eval.bindings_algebra
                        ~planner:
                          (Gql_fuzz.Oracle.shuffled_planner
                             ~seed:(Hashtbl.hash q.sq_name))
                        ~index:(Gql_core.Gql.index db) data c) );
                ( "algebra-noindex",
                  body (fun c -> Gql_match.Eval.bindings_algebra data c) );
              ]
            in
            List.iter2
              (fun (label, a) (_, b) ->
                check (q.sq_name ^ " " ^ label ^ " identical") a b)
              (routes frozen) (routes loaded))
      | _ -> ())
    Gql_workload.Queries.server_suite

let test_wglog_identity () =
  (* the deductive engine: fixpoint on a fork of the loaded graph must
     derive exactly what a fork of the frozen graph derives *)
  let graph = Gql_workload.Gen.restaurants ~seed:84 50 in
  let frozen = Gql_core.Gql.of_graph graph in
  let path = save_db frozen in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let loaded = Gql_core.Gql.load_snapshot_file path in
      let run (db : Gql_core.Gql.db) =
        let fork = Gql_core.Gql.of_graph (Gql_data.Graph.copy db.Gql_core.Gql.graph) in
        let stats =
          Gql_core.Gql.run_wglog_text
            ~schema:Gql_wglog.Schema.restaurant_schema fork
            Gql_workload.Queries.q10_src
        in
        ( stats.Gql_wglog.Eval.rounds, stats.embeddings_found,
          stats.nodes_added, stats.edges_added,
          Gql_core.Gql.stats fork )
      in
      check_bool "wglog fixpoints identical" true (run frozen = run loaded))

let test_lazy_load () =
  with_roundtrip "bibliography" (fun frozen loaded ->
      (* the mutable graph stays cold until an engine actually needs it;
         node/edge counts answer from the snapshot header *)
      check_bool "graph not thawed by load" false
        (Gql_data.Graph.forced loaded.Gql_core.Gql.graph);
      check_bool "stats without thaw" true
        (Gql_core.Gql.stats loaded = Gql_core.Gql.stats frozen);
      check_bool "still not thawed" false
        (Gql_data.Graph.forced loaded.Gql_core.Gql.graph);
      ignore (Gql_data.Graph.digraph loaded.Gql_core.Gql.graph);
      check_bool "thawed on demand" true
        (Gql_data.Graph.forced loaded.Gql_core.Gql.graph))

(* --- one representation ------------------------------------------------ *)

module Index = Gql_data.Index
module G = Gql_data.Graph

let data_graph name =
  (Gql_core.Gql.load_xml_file ("../data/" ^ name ^ ".xml")).Gql_core.Gql.graph

let with_saved (idx : Index.t) f =
  let path = Filename.temp_file "gql-store" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (Store.save ~path idx);
      f path)

(* A multigraph with parallel edges of every kind, atoms from edge
   sources, and values that share a bucket while differing in bits
   ([0.0] / [-0.0], the NaNs) or in type ([12] / ["12"]). *)
let random_graph seed : G.t =
  let rng = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let values =
    Gql_data.Value.
      [| Float 0.0; Float (-0.0); Float nan; String "nan"; Int 12; String "12";
         Float 12.0; String " 7 "; String "a"; String "b"; Bool true; Int (-3) |]
  in
  let g = G.create () in
  let n = 1 + Random.State.int rng 40 in
  for _ = 1 to n do
    if Random.State.int rng 3 = 0 then ignore (G.add_atom g (pick values))
    else ignore (G.add_complex g (pick [| "A"; "B"; "C"; "nan" |]))
  done;
  G.add_root g 0;
  for _ = 1 to Random.State.int rng (3 * n) do
    let name = pick [| "x"; "y"; "A" |] in
    let e =
      match Random.State.int rng 5 with
      | 0 -> G.child_edge name
      | 1 -> G.child_edge ~ord:(Random.State.int rng 3) name
      | 2 -> G.attr_edge name
      | 3 -> G.ref_edge name
      | _ -> G.rel_edge name
    in
    G.link g ~src:(Random.State.int rng n) ~dst:(Random.State.int rng n) e
  done;
  g

(* Every field a snapshot stores.  Compared with [compare], under which
   NaN keys equal themselves. *)
let planes (idx : Index.t) =
  let csr = idx.Index.csr in
  ( ( idx.Index.by_label, idx.Index.out_by_name, idx.Index.in_by_name,
      idx.Index.attr_out, idx.Index.edges_by_name ),
    (idx.Index.child_out, idx.Index.child_in, idx.Index.ref_out, idx.Index.ref_in),
    (idx.Index.by_number, idx.Index.by_string, idx.Index.all_complex, idx.Index.all_atoms),
    ( idx.Index.stride, Gql_data.Symtab.to_array idx.Index.symtab,
      csr.Gql_graph.Csr.node_syms, csr.Gql_graph.Csr.out_off, csr.Gql_graph.Csr.out_dst,
      csr.Gql_graph.Csr.in_off, csr.Gql_graph.Csr.in_src ) )

let same_planes_after_roundtrip g =
  let built = Index.build g in
  with_saved built (fun path ->
      let _, loaded = Store.load ~path in
      compare (planes built) (planes loaded) = 0)

let test_same_planes_data () =
  List.iter
    (fun name ->
      check_bool (name ^ " planes") true
        (same_planes_after_roundtrip (data_graph name)))
    [ "bibliography"; "people"; "greengrocer" ]

let prop_same_planes_random =
  QCheck.Test.make ~name:"built = loaded, random graphs" ~count:200
    QCheck.(make Gen.(int_range 0 100_000))
    (fun seed ->
      same_planes_after_roundtrip (random_graph seed)
      && same_planes_after_roundtrip
           (fst (Gql_data.Codec.encode (Gql_workload.Gen.random_tree ~seed 60))))

(* Equal-valued atoms whose keys differ in bits ([0.0] / [-0.0], the
   NaNs): a file records one key per bucket, and which one is part of
   the format.  [compare] cannot see the difference; the digest can. *)
let values_graph () : G.t =
  let g = G.create () in
  let r = G.add_complex g "R" in
  G.add_root g r;
  List.iteri
    (fun i v ->
      let a = G.add_atom g v in
      let c = G.add_complex g (if i mod 2 = 0 then "E" else "F") in
      G.link g ~src:r ~dst:c (G.child_edge "e");
      G.link g ~src:c ~dst:a (G.child_edge ~ord:i "v");
      G.link g ~src:c ~dst:r (G.ref_edge "up");
      G.link g ~src:c ~dst:r (G.ref_edge "up");
      G.link g ~src:r ~dst:a (G.attr_edge "k");
      G.link g ~src:a ~dst:c (G.rel_edge "back"))
    Gql_data.Value.
      [ Float (-0.0); String "12"; Float 0.0; Int 12; String "nan"; Float nan;
        String "-0.0"; Bool true; String "b"; String "a"; Float 12.0;
        String " 7 "; Int 7; Float (-0.0); String "a" ];
  g

(* Snapshot bytes are a format: these digests were taken before the
   index was built straight into flat planes, and must not move. *)
let test_pinned_digests () =
  List.iter
    (fun (name, g, digest) ->
      with_saved (Index.build (Lazy.force g)) (fun path ->
          check (name ^ " digest") digest (Digest.to_hex (Digest.file path))))
    [
      ("bibliography", lazy (data_graph "bibliography"), "a211704a1ac3a3847a9e40c7fa36e5a3");
      ("people", lazy (data_graph "people"), "01b4d7593789b1e5b25114e478afa0bb");
      ("greengrocer", lazy (data_graph "greengrocer"), "e254ee84cc400ec9c4695f76f7acc720");
      ("wide", lazy (Gql_workload.Gen.wide_graph ~hubs:16 2000), "a0f93f168ba051cfdd4c033412c836d0");
      ("deep", lazy (Gql_workload.Gen.deep_graph ~chains:16 2000), "bee551d1a57a7798718fb78f69659897");
      ("values", lazy (values_graph ()), "3e4ac3b4dcb50987aadc93ce7c355034");
    ];
  check_int "format version" 1 Store.format_version

(* Value lookups binary-search their keys, so a file whose value keys
   are out of order must be refused by both load and validate. *)
let test_value_key_order () =
  let idx = Index.build (data_graph "bibliography") in
  let rev : 'k. 'k Index.postings -> 'k Index.postings =
   fun p ->
    check_bool "at least two keys" true (Array.length p.Index.keys >= 2);
    let keys = Array.copy p.Index.keys in
    let k = Array.length keys in
    let last = keys.(k - 1) in
    keys.(k - 1) <- keys.(0);
    keys.(0) <- last;
    { p with Index.keys }
  in
  List.iter
    (fun (section, bad) ->
      with_saved bad (fun path ->
          let section_of f =
            match f () with
            | _ -> Alcotest.failf "%s out of order accepted" section
            | exception Store.Invalid_snapshot { section; _ } -> section
          in
          check "load names it" section (section_of (fun () -> ignore (Store.load ~path)));
          check "validate names it" section
            (section_of (fun () -> ignore (Store.validate path)))))
    [
      ("valn_keys", { idx with Index.by_number = rev idx.Index.by_number });
      ("vals_kblob", { idx with Index.by_string = rev idx.Index.by_string });
    ]

(* --- corrupt / truncated / wrong-version files ------------------------- *)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))

let write_bytes path b =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc b)

(* Write a mutated copy of [src] and expect [Store.load] to reject it
   with a typed error; returns the section the error names. *)
let expect_invalid ~what src (mutate : Bytes.t -> Bytes.t) : string =
  let path = Filename.temp_file "gql-store" ".bad" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_bytes path (mutate (read_bytes src));
      match Store.load ~path with
      | _ -> Alcotest.failf "%s: corrupt file loaded" what
      | exception Store.Invalid_snapshot { section; _ } -> section)

let with_valid_file (f : string -> unit) =
  let db = Gql_core.Gql.load_xml_string (xml_of "bibliography") in
  let path = save_db db in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_reject_magic_and_version () =
  with_valid_file (fun path ->
      let sec =
        expect_invalid ~what:"magic" path (fun b -> Bytes.set b 0 'X'; b)
      in
      check "magic error names header" "header" sec;
      let sec =
        expect_invalid ~what:"version" path (fun b ->
            (* h_version lives at byte 8, little-endian *)
            Bytes.set b 8 '\x63'; b)
      in
      check "version error names header" "header" sec)

let test_reject_truncation () =
  with_valid_file (fun path ->
      let total = Bytes.length (read_bytes path) in
      List.iter
        (fun keep ->
          ignore
            (expect_invalid ~what:(Printf.sprintf "truncate to %d" keep) path
               (fun b -> Bytes.sub b 0 keep)))
        [ 0; 7; 100; 4096; total / 2; total - 1 ])

let test_reject_bit_flips () =
  with_valid_file (fun path ->
      let info = Store.validate path in
      (* flip the first byte of every non-empty section: each must be
         caught by that section's checksum (or the structural checks) *)
      List.iter
        (fun (name, off, elems) ->
          if elems > 0 then begin
            let sec =
              expect_invalid ~what:("flip " ^ name) path (fun b ->
                  Bytes.set b off
                    (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
                  b)
            in
            check_bool
              (Printf.sprintf "flip in %s names a section (%s)" name sec)
              true (String.length sec > 0)
          end)
        info.Store.info_sections;
      (* ... and a flip inside the header table *)
      ignore
        (expect_invalid ~what:"flip header table" path (fun b ->
             Bytes.set b 70 (Char.chr (Char.code (Bytes.get b 70) lxor 0x01));
             b)))

(* --- registry digest reuse --------------------------------------------- *)

let test_registry_xml_reuse () =
  let reg = Registry.create () in
  let xml = xml_of "bibliography" in
  let v1 =
    match Registry.load_xml reg ~name:"d" xml with
    | Ok s -> s.Registry.version
    | Error m -> Alcotest.fail m
  in
  let v2 =
    match Registry.load_xml reg ~name:"d" xml with
    | Ok s -> s.Registry.version
    | Error m -> Alcotest.fail m
  in
  check_int "identical xml reuses the snapshot" v1 v2;
  let v3 =
    match Registry.load_xml reg ~name:"d" (xml_of "people") with
    | Ok s -> s.Registry.version
    | Error m -> Alcotest.fail m
  in
  check_bool "different xml bumps the version" true (v3 > v1)

let test_registry_snapshot_reuse () =
  with_valid_file (fun path ->
      let reg = Registry.create () in
      let load () =
        match Registry.load_snapshot reg ~name:"d" path with
        | Ok s -> s.Registry.version
        | Error m -> Alcotest.fail m
      in
      let v1 = load () in
      check_int "identical file reuses the snapshot" v1 (load ());
      (* a genuinely different snapshot file under the same name bumps *)
      let db2 = Gql_core.Gql.load_xml_string (xml_of "people") in
      let path2 = save_db db2 in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path2 with Sys_error _ -> ())
        (fun () ->
          match Registry.load_snapshot reg ~name:"d" path2 with
          | Ok s -> check_bool "new file bumps" true (s.Registry.version > v1)
          | Error m -> Alcotest.fail m))

let test_registry_snapshot_rejects () =
  let reg = Registry.create () in
  let path = Filename.temp_file "gql-store" ".bad" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_bytes path (Bytes.of_string "not a snapshot at all");
      match Registry.load_snapshot reg ~name:"d" path with
      | Ok _ -> Alcotest.fail "garbage accepted"
      | Error msg ->
        check_bool "error mentions the file" true
          (String.length msg > 0))

(* --- validate / file_key ----------------------------------------------- *)

let test_validate_info () =
  with_valid_file (fun path ->
      let i = Store.validate path in
      let db = Gql_core.Gql.load_xml_string (xml_of "bibliography") in
      let nodes, edges = Gql_core.Gql.stats db in
      check_int "nodes" nodes i.Store.info_nodes;
      check_int "edges" edges i.Store.info_edges;
      check_int "format" 1 i.Store.info_format;
      check_bool "sections listed" true (List.length i.Store.info_sections >= 30);
      (* the content key is stable across processes and reads *)
      check "file_key stable" (Store.file_key path) (Store.file_key path))

(* --- the MATCH row path reads a loaded snapshot without thawing it ------ *)

(* Both large-scan queries, served from loaded snapshots of small [wide]
   and [deep] graphs (over 2048 rows each, so the render ranks cells):
   node tests and cells read the payload plane, so the graph stays
   unforced, and the bodies are those of the in-memory graph under the
   reference render. *)
let test_row_path_no_thaw () =
  List.iter
    (fun (name, g, src) ->
      let c = Gql_match.Compile.compile (Gql_core.Gql.parse_match src) in
      let expect = Gql_fuzz.Oracle.reference_body g c (Gql_match.Eval.bindings g c) in
      with_saved (Gql_core.Gql.index (Gql_core.Gql.of_graph g)) (fun path ->
          let server = Gql_server.Server.create () in
          Fun.protect
            ~finally:(fun () -> Gql_server.Server.stop server)
            (fun () ->
              let snap =
                Result.get_ok
                  (Registry.load_snapshot (Gql_server.Server.registry server) ~name path)
              in
              let loaded = snap.Registry.db.Gql_core.Gql.graph in
              List.iter
                (fun round ->
                  let resp =
                    Gql_server.Protocol.parse_response
                      (Gql_server.Server.handle_payload server
                         (Gql_server.Protocol.render_request
                            (Gql_server.Protocol.Run
                               { doc = name; query = `Source src; schema = None;
                                 deadline_ms = None })))
                  in
                  match resp with
                  | Gql_server.Protocol.Ok_ { body; _ } ->
                    check (name ^ " " ^ round ^ " body") expect body;
                    check_bool (name ^ " " ^ round ^ " not thawed") false
                      (G.forced loaded)
                  | r ->
                    Alcotest.failf "%s: %s" name (Gql_server.Protocol.render_response r))
                [ "cold"; "cached" ])))
    [
      ( "wide",
        Gql_workload.Gen.wide_graph ~hubs:16 4000,
        "MATCH (h:Hub)-[:rel]->(i:Item)\nRETURN h, i\n" );
      ( "deep",
        Gql_workload.Gen.deep_graph ~chains:16 4000,
        "MATCH (h:Head)-[:next+]->(t:Cell)\nRETURN h, t\n" );
    ]

let () =
  Alcotest.run "store"
    [
      ( "identity",
        [
          Alcotest.test_case "xmlgl suite" `Quick test_xmlgl_identity;
          Alcotest.test_case "match routes" `Quick test_match_routes_identity;
          Alcotest.test_case "wglog fixpoint" `Quick test_wglog_identity;
          Alcotest.test_case "lazy thaw" `Quick test_lazy_load;
          Alcotest.test_case "row path without thaw" `Quick test_row_path_no_thaw;
        ] );
      ( "rejects",
        [
          Alcotest.test_case "magic and version" `Quick test_reject_magic_and_version;
          Alcotest.test_case "truncation" `Quick test_reject_truncation;
          Alcotest.test_case "bit flips" `Quick test_reject_bit_flips;
        ] );
      ( "registry",
        [
          Alcotest.test_case "xml digest reuse" `Quick test_registry_xml_reuse;
          Alcotest.test_case "snapshot digest reuse" `Quick test_registry_snapshot_reuse;
          Alcotest.test_case "typed rejection" `Quick test_registry_snapshot_rejects;
        ] );
      ( "validate",
        [ Alcotest.test_case "info and file_key" `Quick test_validate_info ] );
      ( "planes",
        [
          Alcotest.test_case "built = loaded, data" `Quick test_same_planes_data;
          QCheck_alcotest.to_alcotest prop_same_planes_random;
          Alcotest.test_case "pinned digests" `Quick test_pinned_digests;
          Alcotest.test_case "value key order" `Quick test_value_key_order;
        ] );
    ]
