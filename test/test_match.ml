(* Tests for the textual MATCH front-end: parser structure, the
   parse->pp->parse identity (fixed corpus and generated queries),
   golden error messages, and byte-identity of the evaluation routes
   (homomorphism scan / indexed / algebra greedy / fixed / no-index)
   on a hand-written document. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- parsing ------------------------------------------------------------- *)

let test_parse_shapes () =
  let q =
    Gql_match.Parse.parse
      {|MATCH (b:BOOK)-[e:id]->(x)<-[]-(y:a-b)
MATCH (b)-[:(link|index)*]->(z)
WHERE x.value > 10 AND y.value <> "n1"
NOT EXISTS { (b)-[:ref]->(w) }
RETURN b, x.value
|}
  in
  check_int "four clauses" 4 (List.length q.Gql_match.Ast.clauses);
  (match q.Gql_match.Ast.clauses with
  | Gql_match.Ast.Match c :: _ ->
    check_int "two hops" 2 (List.length c.Gql_match.Ast.hops);
    (match c.Gql_match.Ast.hops with
    | [ (e1, n1); (e2, n2) ] ->
      check "edge var" true (e1.Gql_match.Ast.e_var = Some "e");
      check "edge label" true (e1.Gql_match.Ast.e_spec = Gql_match.Ast.Label "id");
      check "out dir" true (e1.Gql_match.Ast.e_dir = Gql_match.Ast.Out);
      check "anon node" true (n1.Gql_match.Ast.n_label = None);
      check "in dir" true (e2.Gql_match.Ast.e_dir = Gql_match.Ast.In);
      check "any spec" true (e2.Gql_match.Ast.e_spec = Gql_match.Ast.Any);
      check "hyphen label" true (n2.Gql_match.Ast.n_label = Some "a-b")
    | _ -> Alcotest.fail "expected two hops")
  | _ -> Alcotest.fail "expected a MATCH clause first");
  (match q.Gql_match.Ast.clauses with
  | _ :: Gql_match.Ast.Match c :: _ -> (
    match c.Gql_match.Ast.hops with
    | [ (e, _) ] ->
      check "regex spec kept verbatim" true
        (e.Gql_match.Ast.e_spec = Gql_match.Ast.Regex "(link|index)*")
    | _ -> Alcotest.fail "expected one hop")
  | _ -> Alcotest.fail "expected a second MATCH clause");
  (match q.Gql_match.Ast.clauses with
  | _ :: _ :: Gql_match.Ast.Where conds :: _ ->
    check_int "two conjuncts" 2 (List.length conds)
  | _ -> Alcotest.fail "expected a WHERE clause");
  check_int "two return columns" 2 (List.length q.Gql_match.Ast.returns);
  check "value return" true
    (List.nth q.Gql_match.Ast.returns 1 = Gql_match.Ast.Value "x")

let test_parse_comments_and_blanks () =
  let q =
    Gql_match.Parse.parse "# a comment\n\nMATCH (a:item)\n\n# more\nRETURN a\n"
  in
  check_int "one clause" 1 (List.length q.Gql_match.Ast.clauses)

(* --- pp roundtrip ---------------------------------------------------------- *)

let roundtrip_src name src =
  let q = Gql_match.Parse.parse src in
  let printed = Gql_match.Pp.query q in
  let q2 = Gql_match.Parse.parse printed in
  check (name ^ " ast identity") true (q = q2);
  check_str (name ^ " pp idempotent") printed (Gql_match.Pp.query q2)

let test_roundtrip_suite () =
  (* every MATCH entry of the server workload survives parse->pp->parse *)
  let matches =
    List.filter
      (fun (sq : Gql_workload.Queries.server_query) ->
        Gql_core.Gql.language_of_source sq.source = `Match)
      Gql_workload.Queries.server_suite
  in
  check "suite has MATCH entries" true (List.length matches >= 5);
  List.iter (fun (sq : Gql_workload.Queries.server_query) ->
      roundtrip_src sq.sq_name sq.source)
    matches

let test_roundtrip_generated () =
  (* the fuzz generator's whole output space holds the identity too *)
  for seed = 0 to 499 do
    let rng = Gql_workload.Prng.create seed in
    let src = Gql_fuzz.Casegen.gen_match rng in
    roundtrip_src (Printf.sprintf "seed %d" seed) src
  done

(* --- error messages (golden) ------------------------------------------------ *)

(* Each case renders as the escaped source and the parser's answer; the
   rendering is compared byte-for-byte against test/golden/match_errors.txt
   so error-message regressions (wording, 1-based positions) show up as
   a diff.  To update the golden file, run the test and copy the actual
   output it prints on failure. *)
let error_cases =
  [
    "MATCH (a:BOOK\nRETURN a\n";
    "MATCH (a)-[:]->(b)\nRETURN a\n";
    "MATCH (a)-[:(x]->(b)\nRETURN a\n";
    "MATCH (a)->(b)\nRETURN a\n";
    "RETURN a\n";
    "MATCH (a)\n";
    "MATCH (a)\nFROB x\nRETURN a\n";
    "MATCH (a)\nRETURN a\nWHERE a.value > 1\n";
    "MATCH (a)\nWHERE a.val > 1\nRETURN a\n";
    "MATCH (a)-[]->(b)\nWHERE b.value >< 1\nRETURN b\n";
    "MATCH (a)\nNOT EXISTS (a)-[]->(b)\nRETURN a\n";
  ]

let render_error_cases () =
  String.concat ""
    (List.map
       (fun src ->
         let answer =
           match Gql_match.Parse.parse_result src with
           | Ok _ -> "ok"
           | Error msg -> msg
         in
         Printf.sprintf "case: %s\nerror: %s\n\n" (String.escaped src) answer)
       error_cases)

let test_error_golden () =
  let golden =
    let ic = open_in "golden/match_errors.txt" in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let actual = render_error_cases () in
  if actual <> golden then (
    Printf.printf "--- actual golden/match_errors.txt ---\n%s" actual;
    check_str "golden error messages" golden actual)

(* --- compile errors ---------------------------------------------------------- *)

let compile_error src =
  let q = Gql_match.Parse.parse src in
  match Gql_match.Compile.compile q with
  | _ -> None
  | exception Gql_match.Compile.Error msg -> Some msg

let test_compile_errors () =
  (match compile_error "MATCH (a:item)\nRETURN b\n" with
  | Some msg -> check "unknown return var" true
      (msg = "unknown variable 'b' in RETURN")
  | None -> Alcotest.fail "expected a compile error");
  (match compile_error "MATCH (a)-[e:id]->(b)\nRETURN e.value\n" with
  | Some _ -> ()
  | None -> Alcotest.fail "edge variable in RETURN should not compile");
  match compile_error "MATCH (x)-[x]->(b)\nRETURN b\n" with
  | Some _ -> ()
  | None -> Alcotest.fail "node/edge name collision should not compile"

(* --- evaluation routes ------------------------------------------------------- *)

let doc_xml =
  {|<shop>
  <item n="1"><name>apple</name><price>3</price></item>
  <item n="2"><name>plum</name><price>7</price></item>
  <box><item n="3"><name>fig</name><price>7</price></item></box>
</shop>|}

let routes db (q : Gql_match.Ast.query) : (string * string) list =
  let graph = db.Gql_core.Gql.graph in
  let idx = Gql_core.Gql.index db in
  let c = Gql_match.Compile.compile q in
  let body embs =
    let b = Gql_match.Eval.body graph c embs in
    check_str "reference render" (Gql_fuzz.Oracle.reference_body graph c embs) b;
    b
  in
  [
    ("homo-scan", body (Gql_match.Eval.bindings graph c));
    ("homo-indexed", body (Gql_match.Eval.bindings ~index:idx graph c));
    ("algebra-greedy",
     body (Gql_match.Eval.bindings_algebra ~index:idx graph c));
    ("algebra-shuffled",
     body
       (Gql_match.Eval.bindings_algebra
          ~planner:(Gql_fuzz.Oracle.shuffled_planner ~seed:(Hashtbl.hash q))
          ~index:idx graph c));
    ("algebra-noindex", body (Gql_match.Eval.bindings_algebra graph c));
  ]

let all_routes_equal db src ~expect =
  let q = Gql_core.Gql.parse_match src in
  match routes db q with
  | [] -> Alcotest.fail "no routes"
  | (_, first) :: rest ->
    List.iter
      (fun (name, b) -> check_str (name ^ " agrees") first b)
      rest;
    check_str "expected body" expect first

let test_eval_basic () =
  let db = Gql_core.Gql.load_xml_string doc_xml in
  all_routes_equal db "MATCH (i:item)-[]->(n:name)\nRETURN i, n.value\n"
    ~expect:"i\tn.value\nitem\tapple\nitem\tfig\nitem\tplum\n";
  (* attribute edges are named; containment edges are not *)
  all_routes_equal db "MATCH (i:item)-[:n]->(v)\nRETURN v.value\n"
    ~expect:"v.value\n1\n2\n3\n"

let test_eval_where_and_paths () =
  let db = Gql_core.Gql.load_xml_string doc_xml in
  all_routes_equal db
    "MATCH (i:item)-[]->(p:price)\nWHERE p.value >= 7\nRETURN p.value\n"
    ~expect:"p.value\n7\n7\n";
  (* a path edge reaches the nested item's name through the box *)
  all_routes_equal db "MATCH (s:shop)-[:.+]->(n:name)\nRETURN n.value\n"
    ~expect:"n.value\napple\nfig\nplum\n";
  (* In-direction traversal *)
  all_routes_equal db "MATCH (n:name)<-[]-(i:item)\nRETURN i, n.value\n"
    ~expect:"i\tn.value\nitem\tapple\nitem\tfig\nitem\tplum\n"

let test_eval_not_exists () =
  let db = Gql_core.Gql.load_xml_string doc_xml in
  (* negated single hop between bound vars: shop's direct items are
     kept only when no box sits between (vacuous here, keeps all) *)
  all_routes_equal db
    "MATCH (s:shop)-[]->(i:item)\nNOT EXISTS { (i)-[:missing]->(s) }\nRETURN i\n"
    ~expect:"i\nitem\nitem\n";
  (* general form with a fresh inner variable: items with no <name> child
     do not exist, so nothing survives *)
  all_routes_equal db
    "MATCH (i:item)\nNOT EXISTS { (i)-[]->(n:name) }\nRETURN i\n"
    ~expect:"i\n";
  (* and the dual: the box has no price child *)
  all_routes_equal db
    "MATCH (b:box)\nNOT EXISTS { (b)-[]->(p:price) }\nRETURN b\n"
    ~expect:"b\nbox\n"

let test_eval_matches_facade () =
  let db = Gql_core.Gql.load_xml_string doc_xml in
  let src = "MATCH (i:item)-[]->(p:price)\nRETURN i, p.value\n" in
  let body, rows = Gql_core.Gql.run_match_text db src in
  check_int "three rows" 3 rows;
  check_str "facade equals direct route" body
    (List.assoc "algebra-greedy" (routes db (Gql_core.Gql.parse_match src)))

(* --- the render against the reference ------------------------------------ *)

(* Cells that stress the line order: empty, tabs, bytes below 0x09,
   newlines, cells that prefix each other, and floats that print as
   integers or as [-0.0]. *)
let odd_values =
  Gql_data.Value.
    [| String ""; String "\t"; String "a\tb"; String "\001"; String "a\001";
       String "a"; String "ab"; String "a\n"; String "\nz"; String "\b"; String " ";
       Float (-0.0); Float 0.0; Float 3.0; Float (-2.0); Float 1e20; Float 0.5;
       Int 3; Bool true; String "3.0" |]

let odd_labels = [| "A"; "B"; "A\tB"; "A\001"; ""; "a b"; "Z\n" |]

let below_tab s = String.exists (fun ch -> ch <= '\t') s

(* [distinct] atoms, every fifth an odd value, and 40 complex nodes
   with odd labels, each the parent of a few atoms so its value cell
   concatenates theirs.  Without [low], no cell holds a byte <= 0x09,
   so a large result sorts on ranks, not on its joined lines. *)
let render_graph rng ~low ~distinct =
  let module G = Gql_data.Graph in
  let g = G.create () in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let keep s = low || not (below_tab s) in
  let odd_values =
    Array.of_list
      (List.filter (fun v -> keep (Gql_data.Value.to_string v)) (Array.to_list odd_values))
  and odd_labels = Array.of_list (List.filter keep (Array.to_list odd_labels)) in
  let atoms =
    Array.init distinct (fun i ->
        G.add_atom g
          (if i mod 5 = 0 then pick odd_values
           else Gql_data.Value.String (Printf.sprintf "v%d" i)))
  in
  let complexes =
    Array.init 40 (fun _ ->
        let n = G.add_complex g (pick odd_labels) in
        for k = 0 to Random.State.int rng 3 do
          G.link g ~src:n ~dst:(pick atoms) (G.child_edge ~ord:k "")
        done;
        n)
  in
  (g, Array.append atoms complexes, complexes)

let render_queries =
  [|
    "MATCH (a)\nRETURN a\n";
    "MATCH (a)\nRETURN a.value\n";
    "MATCH (a)-[]->(b)\nRETURN a, b.value\n";
    "MATCH (a)-[]->(b)-[]->(c)-[]->(d)\nRETURN a, b.value, c, d.value, a.value\n";
  |]

(* Random bindings — not embeddings: the render only reads the returned
   slots — over a random graph: 0 rows, one, a few, or thousands, drawn
   from all nodes or from complex nodes only (so a large result of
   labels takes the ranked path), and either freely or from one to five
   rows so duplicates abound; one row repeated arrives in order, so its
   result is written from ranks without a sort. *)
let prop_render_reference =
  QCheck.Test.make ~name:"render agrees with the reference" ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let data, all, complexes =
        render_graph rng ~low:(Random.State.bool rng) ~distinct:(1 + Random.State.int rng 3000)
      in
      let nodes = if Random.State.bool rng then all else complexes in
      let c =
        Gql_match.Compile.compile
          (Gql_match.Parse.parse
             render_queries.(Random.State.int rng (Array.length render_queries)))
      in
      let k = Array.length c.Gql_match.Compile.pattern.Gql_graph.Homo.p_nodes in
      let row () = Array.init k (fun _ -> nodes.(Random.State.int rng (Array.length nodes))) in
      let n =
        match Random.State.int rng 4 with
        | 0 -> Random.State.int rng 2
        | 1 -> Random.State.int rng 50
        | _ -> 2048 + Random.State.int rng 3000
      in
      let embs =
        if Random.State.bool rng then List.init n (fun _ -> row ())
        else
          let pool = Array.init (1 + Random.State.int rng 5) (fun _ -> row ()) in
          List.init n (fun _ -> Array.copy pool.(Random.State.int rng (Array.length pool)))
      in
      Gql_match.Eval.body data c embs = Gql_fuzz.Oracle.reference_body data c embs)

(* Cells holding a byte below the joining tab: rank order would put
   [a] before [a\001], line order puts ["a\001\tc"] before ["a\tz"].
   Every render path must keep line order: small results, large
   results of atoms, and large results of labels, whose rows here
   arrive in rank order (all [a z] rows first) and so would be written
   from their ranks without the check. *)
let test_render_below_tab () =
  let module G = Gql_data.Graph in
  let c =
    Gql_match.Compile.compile (Gql_match.Parse.parse "MATCH (x)-[]->(y)\nRETURN x, y\n")
  in
  List.iter
    (fun (kind, node) ->
      let g = G.create () in
      let node = node g in
      let a = node "a" and a1 = node "a\001" and z = node "z" and c' = node "c" in
      List.iter
        (fun n ->
          let embs = List.init n (fun i -> if 2 * i < n then [| a; z |] else [| a1; c' |]) in
          let body = Gql_match.Eval.body g c embs in
          check_str
            (Printf.sprintf "%s, %d rows: reference" kind n)
            (Gql_fuzz.Oracle.reference_body g c embs) body;
          check_str
            (Printf.sprintf "%s, %d rows: first line" kind n)
            "x\ty\na\001\tc\n"
            (String.sub body 0 9))
        [ 2; 3000 ])
    [ ("atoms", fun g s -> G.add_atom g (Gql_data.Value.String s));
      ("labels", fun g s -> G.add_complex g s) ]

(* A two-component MATCH joins its components with Cross.  Under a
   deadline the product must stop while its batch is small: 3000 x 3000
   pairs would fill 18M words, far more than 10 ms of work allocates. *)
let test_cross_deadline () =
  let g = Gql_workload.Gen.wide_graph ~hubs:3000 3000 in
  let p =
    Gql_match.Eval.prepare g
      (Gql_match.Parse.parse "MATCH (h:Hub)\nMATCH (i:Item)\nRETURN h, i\n")
  in
  let full_bytes = 3000. *. 3000. *. 2. *. float (Sys.word_size / 8) in
  let before = Gc.allocated_bytes () in
  (match
     Gql_graph.Deadline.with_deadline
       (Unix.gettimeofday () +. 0.01)
       (fun () -> Gql_match.Eval.run_prepared ~domains:1 g p)
   with
  | exception Gql_graph.Deadline.Exceeded -> ()
  | _, rows -> Alcotest.failf "a 9M-row product finished in 10 ms (%d rows)" rows);
  let used = Gc.allocated_bytes () -. before in
  if used > full_bytes /. 2. then
    Alcotest.failf "the cancelled product allocated %.0f MB" (used /. 1e6)

let () =
  Alcotest.run "gql_match"
    [
      ( "parse",
        [
          Alcotest.test_case "shapes" `Quick test_parse_shapes;
          Alcotest.test_case "comments and blanks" `Quick
            test_parse_comments_and_blanks;
        ] );
      ( "pp",
        [
          Alcotest.test_case "suite roundtrip" `Quick test_roundtrip_suite;
          Alcotest.test_case "generated roundtrip" `Quick
            test_roundtrip_generated;
        ] );
      ( "errors",
        [
          Alcotest.test_case "golden messages" `Quick test_error_golden;
          Alcotest.test_case "compile errors" `Quick test_compile_errors;
        ] );
      ( "eval",
        [
          Alcotest.test_case "basic" `Quick test_eval_basic;
          Alcotest.test_case "where and paths" `Quick test_eval_where_and_paths;
          Alcotest.test_case "not exists" `Quick test_eval_not_exists;
          Alcotest.test_case "facade" `Quick test_eval_matches_facade;
          Alcotest.test_case "render below tab" `Quick test_render_below_tab;
          QCheck_alcotest.to_alcotest prop_render_reference;
          Alcotest.test_case "cross under a deadline" `Quick test_cross_deadline;
        ] );
    ]
