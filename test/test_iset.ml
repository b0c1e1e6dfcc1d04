(* Tests for Gql_graph.Iset (flat sorted int sets: construction
   normalisation, linear vs galloping intersection agreement around the
   crossover, set algebra edge cases) and Gql_data.Symtab (id/name
   round-trips, concurrent interning from multiple domains). *)

open Gql_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

let l (s : Iset.t) = Iset.to_list s

(* --- construction ------------------------------------------------------ *)

let test_build () =
  check_list "empty" [] (l Iset.empty);
  check_int "empty length" 0 (Iset.length Iset.empty);
  check "empty is_empty" true (Iset.is_empty Iset.empty);
  check_list "one element" [ 7 ] (l (Iset.of_list [ 7 ]));
  check_list "of_list sorts" [ 1; 2; 9 ] (l (Iset.of_list [ 9; 1; 2 ]));
  check_list "of_list dedups" [ 1; 2 ] (l (Iset.of_list [ 2; 1; 2; 1; 1 ]));
  check_list "of_list dedups sorted input" [ 3; 4 ]
    (l (Iset.of_list [ 3; 3; 4 ]));
  check_list "already strict input kept" [ 1; 5; 8 ]
    (l (Iset.of_list [ 1; 5; 8 ]));
  check_int "get" 5 (Iset.get (Iset.of_list [ 9; 5; 1 ]) 1);
  check "mem yes" true (Iset.mem (Iset.of_list [ 1; 5; 9 ]) 5);
  check "mem no" false (Iset.mem (Iset.of_list [ 1; 5; 9 ]) 4);
  (* binary-search path: > 8 elements *)
  let big = Iset.of_list (List.init 100 (fun i -> i * 3)) in
  check "mem binary yes" true (Iset.mem big 99);
  check "mem binary no" false (Iset.mem big 100)

let test_sub () =
  let s = Iset.of_list [ 0; 2; 4; 6; 8 ] in
  check_list "middle slice" [ 2; 4; 6 ] (l (Iset.sub s 1 3));
  check_list "empty slice" [] (l (Iset.sub s 2 0));
  check_list "full slice" (l s) (l (Iset.sub s 0 5))

(* --- intersection ------------------------------------------------------ *)

let test_inter_edge_cases () =
  let s123 = Iset.of_list [ 1; 2; 3 ] in
  check_list "empty-left" [] (l (Iset.inter Iset.empty s123));
  check_list "empty-right" [] (l (Iset.inter s123 Iset.empty));
  check_list "disjoint" [] (l (Iset.inter s123 (Iset.of_list [ 4; 5 ])));
  check_list "contained" [ 2; 3 ]
    (l (Iset.inter s123 (Iset.of_list [ 2; 3; 9 ])));
  check_list "identical" [ 1; 2; 3 ] (l (Iset.inter s123 s123));
  check_list "singleton hit" [ 2 ] (l (Iset.inter (Iset.of_list [ 2 ]) s123));
  check_list "singleton miss" [] (l (Iset.inter (Iset.of_list [ 9 ]) s123))

(* Linear and galloping intersection must agree everywhere, in
   particular around the [gallop_factor] crossover where [inter] flips
   between them. *)
let test_inter_crossover () =
  let small = Iset.of_list [ 0; 17; 40; 41; 999 ] in
  List.iter
    (fun n ->
      let large = Iset.of_list (List.init n (fun i -> i)) in
      let lin = l (Iset.inter_linear small large) in
      let gal = l (Iset.inter_gallop small large) in
      let auto = l (Iset.inter small large) in
      Alcotest.(check (list int))
        (Printf.sprintf "linear=gallop at n=%d" n)
        lin gal;
      Alcotest.(check (list int)) (Printf.sprintf "auto at n=%d" n) lin auto)
    [ 1; 5; Iset.gallop_factor * 5 - 1; Iset.gallop_factor * 5;
      Iset.gallop_factor * 5 + 1; 2000 ]

let test_inter_qcheck =
  QCheck.Test.make ~count:500 ~name:"inter agrees with naive set intersection"
    QCheck.(pair (list (int_bound 200)) (list (int_bound 200)))
    (fun (a, b) ->
      let sa = Iset.of_list a and sb = Iset.of_list b in
      let naive =
        List.sort_uniq compare (List.filter (fun x -> List.mem x b) a)
      in
      l (Iset.inter sa sb) = naive
      && l (Iset.inter_linear sa sb) = naive
      && l (Iset.inter_gallop sa sb) = naive)

let test_inter_many () =
  let s1 = Iset.of_list [ 1; 2; 3; 4; 5 ] in
  let s2 = Iset.of_list [ 2; 4; 6 ] in
  let s3 = Iset.of_list [ 0; 2; 4 ] in
  check_list "three sets" [ 2; 4 ] (l (Iset.inter_many [ s1; s2; s3 ]));
  check_list "single set" [ 2; 4; 6 ] (l (Iset.inter_many [ s2 ]));
  check_list "with empty" [] (l (Iset.inter_many [ s1; Iset.empty; s2 ]));
  check "empty list rejected" true
    (match Iset.inter_many [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- union / diff / filter --------------------------------------------- *)

let test_union_diff_filter () =
  let s1 = Iset.of_list [ 1; 3; 5 ] in
  let s2 = Iset.of_list [ 2; 3; 4 ] in
  check_list "union" [ 1; 2; 3; 4; 5 ] (l (Iset.union s1 s2));
  check_list "union empty" [ 1; 3; 5 ] (l (Iset.union s1 Iset.empty));
  check_list "diff" [ 1; 5 ] (l (Iset.diff s1 s2));
  check_list "diff all" [] (l (Iset.diff s1 s1));
  check_list "diff empty" [ 1; 3; 5 ] (l (Iset.diff s1 Iset.empty));
  check_list "filter" [ 3; 5 ] (l (Iset.filter (fun x -> x > 1) s1));
  check "filter nothing dropped shares" true
    (Iset.filter (fun _ -> true) s1 == s1)

(* --- symtab ------------------------------------------------------------ *)

let test_symtab_basic () =
  let t = Gql_data.Symtab.create () in
  let a = Gql_data.Symtab.intern t "alpha" in
  let b = Gql_data.Symtab.intern t "beta" in
  check_int "distinct ids" 1 (abs (b - a));
  check_int "re-intern stable" a (Gql_data.Symtab.intern t "alpha");
  check_int "find hit" a
    (match Gql_data.Symtab.find t "alpha" with Some i -> i | None -> -1);
  check "find miss" true (Gql_data.Symtab.find t "gamma" = None);
  check "name round-trip" true (Gql_data.Symtab.name t b = "beta");
  check_int "length" 2 (Gql_data.Symtab.length t)

(* Concurrent interning: several domains intern overlapping name sets;
   afterwards every name must have exactly one id and every id must
   round-trip, regardless of interleaving. *)
let test_symtab_concurrent () =
  let t = Gql_data.Symtab.create ~size:1 () in
  let names d = List.init 200 (fun i -> Printf.sprintf "n%d" ((i + d) mod 250)) in
  let workers =
    List.init 4 (fun d ->
        Domain.spawn (fun () -> List.map (Gql_data.Symtab.intern t) (names d)))
  in
  let results = List.map Domain.join workers in
  (* every domain saw the same id for the same name *)
  List.iteri
    (fun d ids ->
      List.iter2
        (fun name id ->
          Alcotest.(check int)
            (Printf.sprintf "domain %d agrees on %s" d name)
            id
            (Gql_data.Symtab.intern t name))
        (names d) ids)
    results;
  (* offsets 0..3 over 200 names cover n0..n202 *)
  check_int "exactly the distinct names" 203 (Gql_data.Symtab.length t);
  for i = 0 to Gql_data.Symtab.length t - 1 do
    let n = Gql_data.Symtab.name t i in
    check_int (Printf.sprintf "id %d round-trips" i) i
      (match Gql_data.Symtab.find t n with Some j -> j | None -> -1)
  done

let () =
  Alcotest.run "iset"
    [
      ( "iset",
        [
          Alcotest.test_case "construction" `Quick test_build;
          Alcotest.test_case "sub slices" `Quick test_sub;
          Alcotest.test_case "inter edge cases" `Quick test_inter_edge_cases;
          Alcotest.test_case "inter crossover" `Quick test_inter_crossover;
          QCheck_alcotest.to_alcotest test_inter_qcheck;
          Alcotest.test_case "inter_many" `Quick test_inter_many;
          Alcotest.test_case "union diff filter" `Quick test_union_diff_filter;
        ] );
      ( "symtab",
        [
          Alcotest.test_case "basic" `Quick test_symtab_basic;
          Alcotest.test_case "concurrent interning" `Quick
            test_symtab_concurrent;
        ] );
    ]
