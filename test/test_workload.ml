(* Tests for Gql_workload: PRNG determinism, generator shapes and
   determinism, query suite health. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- prng ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Gql_workload.Prng.create 7 in
  let b = Gql_workload.Prng.create 7 in
  let sa = List.init 50 (fun _ -> Gql_workload.Prng.int a 1000) in
  let sb = List.init 50 (fun _ -> Gql_workload.Prng.int b 1000) in
  check "same stream" true (sa = sb);
  let c = Gql_workload.Prng.create 8 in
  let sc = List.init 50 (fun _ -> Gql_workload.Prng.int c 1000) in
  check "different seed differs" true (sa <> sc)

let test_prng_ranges () =
  let r = Gql_workload.Prng.create 1 in
  for _ = 1 to 200 do
    let v = Gql_workload.Prng.int r 10 in
    check "in range" true (v >= 0 && v < 10);
    let f = Gql_workload.Prng.float r in
    check "float in range" true (f >= 0.0 && f < 1.0)
  done

let test_prng_unbiased () =
  (* rejection sampling: for a bound that divides no power of two,
     every residue must appear at close to the same frequency.  With
     the old truncating modulo a bound this close to a divisor of the
     62-bit range would skew low residues measurably. *)
  let r = Gql_workload.Prng.create 42 in
  let bound = 3 in
  let n = 30_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to n do
    let v = Gql_workload.Prng.int r bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int n /. float_of_int bound in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      check (Printf.sprintf "residue %d within 5%%" i) true (dev < 0.05))
    counts;
  (* degenerate and invalid bounds *)
  check_int "bound 1 is constant" 0 (Gql_workload.Prng.int r 1);
  check "bound 0 rejected" true
    (match Gql_workload.Prng.int r 0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* large bounds stay in range (the 62-bit window never goes negative) *)
  let big = max_int / 2 in
  for _ = 1 to 100 do
    let v = Gql_workload.Prng.int r big in
    check "large bound in range" true (v >= 0 && v < big)
  done

let test_prng_shuffle () =
  let r = Gql_workload.Prng.create 2 in
  let arr = [| 1; 2; 3; 4; 5; 6 |] in
  let s = Gql_workload.Prng.shuffle r arr in
  check "permutation" true
    (List.sort compare (Array.to_list s) = Array.to_list arr);
  check "original untouched" true (arr = [| 1; 2; 3; 4; 5; 6 |])

(* --- generators -------------------------------------------------------------- *)

let test_bibliography_shape () =
  let d = Gql_workload.Gen.bibliography ~seed:1 12 in
  check_int "twelve books" 12
    (List.length (Support.find_all "BOOK" d.Gql_xml.Tree.root));
  check "valid against dtd" true
    (Gql_dtd.Validate.is_valid Gql_workload.Gen.book_dtd d)

let test_generator_determinism () =
  let a = Gql_workload.Gen.bibliography ~seed:5 10 in
  let b = Gql_workload.Gen.bibliography ~seed:5 10 in
  check "same seed, same doc" true
    (Support.equal_element a.Gql_xml.Tree.root b.Gql_xml.Tree.root);
  let c = Gql_workload.Gen.bibliography ~seed:6 10 in
  check "different seed" false
    (Support.equal_element a.Gql_xml.Tree.root c.Gql_xml.Tree.root)

let test_greengrocer_shape () =
  let d = Gql_workload.Gen.greengrocer ~seed:1 ~vendors:4 30 in
  let root = d.Gql_xml.Tree.root in
  check_int "products" 30 (List.length (Support.find_all "product" root));
  (* product/vendor text values always reference a declared vendor name *)
  let vendor_names =
    Support.find_all "vendors" root
    |> List.concat_map (Support.find_all "name")
    |> List.map Gql_xml.Tree.text_content_el
  in
  let used =
    Support.find_all "products" root
    |> List.concat_map (Support.find_all "vendor")
    |> List.map Gql_xml.Tree.text_content_el
  in
  check "joins resolvable" true (List.for_all (fun v -> List.mem v vendor_names) used)

let test_people_shape () =
  let d = Gql_workload.Gen.people ~seed:1 ~with_addr:0.5 40 in
  let persons = Support.find_all "PERSON" d.Gql_xml.Tree.root in
  check_int "persons" 40 (List.length persons);
  let with_addr =
    List.length (List.filter (fun p -> Support.find_first "FULLADDR" p <> None) persons)
  in
  check "roughly half have addresses" true (with_addr > 8 && with_addr < 32)

let test_hyperdocs_shape () =
  let g = Gql_workload.Gen.hyperdocs ~seed:1 ~fanout:3 ~link_factor:1 20 in
  check_int "twenty documents" 20
    (List.length (Gql_data.Graph.nodes_labelled g "Document"));
  (* index edges form a forest: every doc except the root has <= 1 index parent *)
  let ok = ref true in
  List.iter
    (fun d ->
      let parents =
        List.filter
          (fun (_, (e : Gql_data.Graph.edge)) -> e.Gql_data.Graph.name = "index")
          (Gql_data.Graph.inn g d)
      in
      if List.length parents > 1 then ok := false)
    (Gql_data.Graph.nodes_labelled g "Document");
  check "index forest" true !ok

let test_restaurants_shape () =
  let g = Gql_workload.Gen.restaurants ~seed:1 ~menu_fraction:1.0 10 in
  check_int "ten restaurants" 10
    (List.length (Gql_data.Graph.nodes_labelled g "Restaurant"));
  check "all offer menus" true
    (List.for_all
       (fun r ->
         List.exists (fun (n, _) -> n = "offers") (Gql_data.Graph.rels g r))
       (Gql_data.Graph.nodes_labelled g "Restaurant"));
  Alcotest.(check (list string)) "schema conform" []
    (Gql_wglog.Schema.validate Gql_wglog.Schema.restaurant_schema g)

let test_random_tree_size () =
  let d = Gql_workload.Gen.random_tree ~seed:2 200 in
  let n = Support.count_nodes d.Gql_xml.Tree.root in
  check "about the requested size" true (n > 100 && n < 500)

(* --- query suite --------------------------------------------------------------- *)

let test_suite_parses () =
  List.iter
    (fun (e : Gql_workload.Queries.entry) ->
      match e.kind with
      | `Xmlgl p ->
        let p = Lazy.force p in
        Alcotest.(check (list string))
          (e.name ^ " well-formed") [] (Gql_xmlgl.Ast.check_program p)
      | `Wglog p ->
        let p = Lazy.force p in
        Alcotest.(check (list string))
          (e.name ^ " well-formed") [] (Gql_wglog.Ast.check_program p))
    Gql_workload.Queries.suite

let test_suite_xpaths_parse () =
  List.iter
    (fun (e : Gql_workload.Queries.entry) ->
      match e.xpath with
      | Some x -> ignore (Gql_xpath.Parse.expr x)
      | None -> ())
    Gql_workload.Queries.suite

let test_suite_coverage () =
  check_int "twelve queries" 12 (List.length Gql_workload.Queries.suite);
  let wglogs =
    List.filter
      (fun (e : Gql_workload.Queries.entry) ->
        match e.kind with `Wglog _ -> true | `Xmlgl _ -> false)
      Gql_workload.Queries.suite
  in
  check_int "three wglog figures" 3 (List.length wglogs)

let () =
  Alcotest.run "gql_workload"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "unbiased" `Quick test_prng_unbiased;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle;
        ] );
      ( "generators",
        [
          Alcotest.test_case "bibliography" `Quick test_bibliography_shape;
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "greengrocer" `Quick test_greengrocer_shape;
          Alcotest.test_case "people" `Quick test_people_shape;
          Alcotest.test_case "hyperdocs" `Quick test_hyperdocs_shape;
          Alcotest.test_case "restaurants" `Quick test_restaurants_shape;
          Alcotest.test_case "random tree" `Quick test_random_tree_size;
        ] );
      ( "suite",
        [
          Alcotest.test_case "parses" `Quick test_suite_parses;
          Alcotest.test_case "xpaths parse" `Quick test_suite_xpaths_parse;
          Alcotest.test_case "coverage" `Quick test_suite_coverage;
        ] );
    ]
