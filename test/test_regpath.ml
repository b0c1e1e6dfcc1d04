(* The flat product-automaton regular-path engine against its reference
   implementations: the retained subset-construction BFS (exact, list
   based) and the bounded naive path enumerator — plus the automaton
   edge cases the flat layout has to get right (empty language,
   ε-accepting starts, self-loops, symbols unseen at freeze time, batch
   agreement, scratch reuse across differently-sized graphs). *)

open Gql_graph

let check = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

let build payloads edges : (string, string) Digraph.t =
  let g = Digraph.create ~dummy:"" in
  List.iter (fun p -> ignore (Digraph.add_node g p)) payloads;
  List.iter (fun (src, l, dst) -> Digraph.add_edge g ~src ~dst l) edges;
  g

let lbl_pred l e = l = e
let compile_lbl re = Regpath.compile lbl_pred re

(* Classified variant of the same predicate: every leaf is a literal
   name, resolvable against an interner. *)
let compile_lbl_classified re =
  Regpath.compile_classified ~plane_hint:1
    ~classify:(fun l -> Regpath.Lname l)
    lbl_pred re

(* A tiny interner for string-labelled test graphs: the distinct labels
   present in the graph, in first-seen order — mirroring how the real
   snapshot index interns every frozen edge name. *)
let intern_of g =
  let tbl = Hashtbl.create 8 in
  Digraph.iter_edges
    (fun ~src:_ ~dst:_ l ->
      if not (Hashtbl.mem tbl l) then Hashtbl.replace tbl l (Hashtbl.length tbl))
    g;
  fun l -> match Hashtbl.find_opt tbl l with Some i -> i | None -> -1

let plane_of g intern =
  let c = Csr.freeze g in
  (c, Csr.map_out_labels intern c, Csr.map_in_labels intern c)

(* --- automaton edge cases ---------------------------------------------- *)

(* Positions, not Thompson states: [next+] has states {start, x}, so a
   1000-node chain pushes one (node, state) pair per node.  The peak is
   the window's: a larger search run before [before] does not show. *)
let test_one_pair_per_node () =
  let chain n =
    build (List.init n string_of_int) (List.init (n - 1) (fun i -> (i, "x", i + 1)))
  in
  let rp = compile_lbl Gql_regex.Syntax.(plus (sym "x")) in
  ignore (Regpath.reachable rp (chain 3000) 0);
  let n = 1000 in
  let chain = chain n in
  let before = Regpath.stats () in
  check_list "whole chain" (List.init (n - 1) (fun i -> i + 1))
    (Regpath.reachable rp chain 0);
  let d = Regpath.stats_diff ~before (Regpath.stats ()) in
  Alcotest.(check int) "frontier peak" n d.Regpath.frontier_peak

let test_empty_language () =
  let g = build [ "a"; "b" ] [ (0, "x", 1) ] in
  let rp = compile_lbl Gql_regex.Syntax.Empty in
  check_list "empty regex reaches nothing" [] (Regpath.reachable rp g 0);
  check "empty regex connects nothing" false (Regpath.connects rp g ~src:0 ~dst:0);
  check "depth bound of empty" true (Regpath.depth_bound rp = Some 0);
  check "empty not nullable" false rp.Regpath.is_nullable

let test_eps_accepting_start () =
  let g = build [ "a"; "b" ] [ (0, "x", 1) ] in
  let star = compile_lbl Gql_regex.Syntax.(star (sym "x")) in
  check "star is nullable" true star.Regpath.is_nullable;
  check_list "start itself is reachable" [ 0; 1 ] (Regpath.reachable star g 0);
  check "nullable self-connect" true (Regpath.connects star g ~src:1 ~dst:1);
  let opt = compile_lbl Gql_regex.Syntax.(opt (sym "y")) in
  check_list "opt with no matching edge keeps the start" [ 0 ]
    (Regpath.reachable opt g 0)

let test_self_loop () =
  let g = build [ "a"; "b" ] [ (0, "x", 0); (0, "x", 1) ] in
  let rp = compile_lbl Gql_regex.Syntax.(plus (sym "x")) in
  check_list "self-loop closure" [ 0; 1 ] (Regpath.reachable rp g 0);
  check "loops back to itself" true (Regpath.connects rp g ~src:0 ~dst:0);
  (* exactly two hops through the loop still terminates *)
  let two = compile_lbl Gql_regex.Syntax.(seq (sym "x") (sym "x")) in
  check_list "two hops over a loop" [ 0; 1 ] (Regpath.reachable two g 0);
  check "bounded depth of xx" true (Regpath.depth_bound two = Some 2);
  check "unbounded depth of x+" true (Regpath.depth_bound rp = None)

let test_unseen_symbol () =
  (* a regex naming a symbol absent from the frozen graph: the
     specialised automaton maps the leaf to the never-matching sentinel
     and must agree with the predicate lane (which fails label compares) *)
  let g = build [ "a"; "b"; "c" ] [ (0, "x", 1); (1, "x", 2) ] in
  let intern = intern_of g in
  check "unseen symbol resolves negative" true (intern "zzz" = -1);
  let rp = compile_lbl_classified Gql_regex.Syntax.(seq (sym "x") (sym "zzz")) in
  let spec = Regpath.specialise rp ~intern in
  let csr, out_p, _in_p = plane_of g intern in
  check_list "pred lane finds nothing" [] (Regpath.reachable rp g 0);
  check "plane lane finds nothing" true
    (Iset.is_empty (Regpath.reachable_plane rp spec csr ~plane:out_p 0));
  (* the seen prefix alone still works on both lanes *)
  let rp_x = compile_lbl_classified Gql_regex.Syntax.(plus (sym "x")) in
  let spec_x = Regpath.specialise rp_x ~intern in
  check_list "plane lane agrees on seen symbols" [ 1; 2 ]
    (Iset.to_list (Regpath.reachable_plane rp_x spec_x csr ~plane:out_p 0))

let test_batch_vs_single () =
  let g =
    build [ "a"; "b"; "c"; "d" ]
      [ (0, "x", 1); (1, "x", 2); (2, "y", 3); (3, "x", 0) ]
  in
  let rp = compile_lbl Gql_regex.Syntax.(star (alt (sym "x") (sym "y"))) in
  let srcs = [| 0; 1; 2; 3 |] in
  let batched = Regpath.reachable_batch rp g srcs in
  Array.iteri
    (fun i src ->
      check_list "batched = single" (Regpath.reachable rp g src)
        (Iset.to_list batched.(i)))
    srcs

let test_scratch_across_sizes () =
  (* same domain, alternating differently-sized graphs: the reused
     scratch must grow for the big graph and stay correct on the small
     one afterwards (stale visited bits would drop or invent nodes) *)
  let small = build [ "a"; "b" ] [ (0, "x", 1) ] in
  let big =
    let n = 500 in
    let g = Digraph.create ~dummy:"" in
    for i = 0 to n - 1 do
      ignore (Digraph.add_node g (string_of_int i))
    done;
    for i = 0 to n - 2 do
      Digraph.add_edge g ~src:i ~dst:(i + 1) "x"
    done;
    g
  in
  let rp = compile_lbl Gql_regex.Syntax.(plus (sym "x")) in
  let expect_small = [ 1 ] and expect_big = List.init 499 (fun i -> i + 1) in
  for _round = 1 to 3 do
    check_list "big graph" expect_big (Regpath.reachable rp big 0);
    check_list "small graph after big" expect_small (Regpath.reachable rp small 0);
    check "connects on big after small" true
      (Regpath.connects rp big ~src:0 ~dst:499)
  done

let test_cancelled_search () =
  (* a search cancelled mid-frontier must leave the domain's scratch
     clean and released: the next searches reuse it and stay exact *)
  let n = 5000 in
  let chain =
    build (List.init n string_of_int)
      (List.init (n - 1) (fun i -> (i, "x", i + 1)))
  in
  let small = build [ "a"; "b" ] [ (0, "x", 1) ] in
  let rp = compile_lbl Gql_regex.Syntax.(plus (sym "x")) in
  (match
     Deadline.with_deadline (Unix.gettimeofday () -. 1.0) (fun () ->
         Regpath.reachable rp chain 0)
   with
  | _ -> Alcotest.fail "expected Deadline.Exceeded"
  | exception Deadline.Exceeded -> ());
  let before = Regpath.stats () in
  check_list "small graph after the cancel" [ 1 ] (Regpath.reachable rp small 0);
  check_list "the same search, unbounded"
    (List.init (n - 1) (fun i -> i + 1))
    (Regpath.reachable rp chain 0);
  let d = Regpath.stats_diff ~before (Regpath.stats ()) in
  check "scratch was released and reused" true (d.Regpath.scratch_reuses >= 2)

let test_counters_move () =
  let before = Regpath.stats () in
  let g = build [ "a"; "b" ] [ (0, "x", 1) ] in
  let rp = compile_lbl Gql_regex.Syntax.(sym "x") in
  ignore (Regpath.reachable rp g 0);
  ignore (Regpath.reachable rp g 0);
  let d = Regpath.stats_diff ~before (Regpath.stats ()) in
  check "compiles counted" true (d.Regpath.compiles >= 1);
  check "searches counted" true (d.Regpath.searches >= 2);
  let lines = Regpath.stats_lines () in
  let mentions key =
    let kl = String.length key and n = String.length lines in
    let found = ref false in
    for i = 0 to n - kl do
      if String.sub lines i kl = key then found := true
    done;
    !found
  in
  List.iter
    (fun k -> check (k ^ " serialised") true (mentions k))
    [ "path_compiles"; "path_searches"; "path_memo_hits"; "path_scratch_reuses" ]

(* --- properties -------------------------------------------------------- *)

let graph_gen =
  QCheck.Gen.(
    let* n = int_range 1 10 in
    let* m = int_range 0 18 in
    let edge = triple (int_bound (n - 1)) (oneofl [ "x"; "y" ]) (int_bound (n - 1)) in
    let* edges = list_size (return m) edge in
    return (n, edges))

(* Raw constructors, so [Eps], [Empty], [Opt] and nested stars reach
   the automaton without the smart constructors folding them away. *)
let re_gen =
  let open QCheck.Gen in
  let module S = Gql_regex.Syntax in
  let sym = oneofl [ "x"; "y"; "z" ] in
  let rec gen d =
    if d = 0 then
      frequency [ (6, map S.sym sym); (1, return S.Eps); (1, return S.Empty) ]
    else
      frequency
        [
          (3, gen 0);
          (2, map2 (fun a b -> S.Seq (a, b)) (gen (d - 1)) (gen (d - 1)));
          (2, map2 (fun a b -> S.Alt (a, b)) (gen (d - 1)) (gen (d - 1)));
          (2, map (fun a -> S.Star a) (gen (d - 1)));
          (2, map (fun a -> S.Plus a) (gen (d - 1)));
          (1, map (fun a -> S.Opt a) (gen (d - 1)));
        ]
  in
  gen 3

let case_gen = QCheck.Gen.pair graph_gen re_gen

let with_case f ((n, edges), re) =
  let g = build (List.init n string_of_int) edges in
  f g re

(* The tentpole equivalence: flat product automaton vs the retained
   subset-construction reference, every node as source, byte-equal
   result lists. *)
let prop_flat_vs_subset =
  QCheck.Test.make ~name:"flat engine = subset-BFS reference" ~count:500
    (QCheck.make case_gen)
    (with_case (fun g re ->
         let rp = compile_lbl re in
         List.for_all
           (fun src -> Regpath.reachable rp g src = Regpath.reachable_subset rp g src)
           (List.init (Digraph.n_nodes g) Fun.id)))

let prop_frozen_and_plane_agree =
  QCheck.Test.make ~name:"digraph = frozen = specialised plane" ~count:500
    (QCheck.make case_gen)
    (with_case (fun g re ->
         let rp = compile_lbl re in
         let rpc = compile_lbl_classified re in
         let intern = intern_of g in
         let spec = Regpath.specialise rpc ~intern in
         let csr, out_p, in_p = plane_of g intern in
         List.for_all
           (fun src ->
             let base = Regpath.reachable rp g src in
             base = Regpath.reachable_frozen rp csr src
             && base = Iset.to_list (Regpath.reachable_plane rpc spec csr ~plane:out_p src)
             && Iset.to_list (Regpath.reachable_rev_plane rpc spec csr ~plane:in_p src)
                = Iset.to_list (Regpath.reachable_rev_set rp g src))
           (List.init (Digraph.n_nodes g) Fun.id)))

let prop_rev_is_transpose =
  QCheck.Test.make ~name:"reverse reachability = forward transposed" ~count:300
    (QCheck.make case_gen)
    (with_case (fun g re ->
         let rp = compile_lbl re in
         let nodes = List.init (Digraph.n_nodes g) Fun.id in
         List.for_all
           (fun dst ->
             let back = Regpath.reachable_rev_set rp g dst in
             List.for_all
               (fun src ->
                 Iset.mem back src = List.mem dst (Regpath.reachable rp g src))
               nodes)
           nodes))

let prop_connects_agrees =
  QCheck.Test.make ~name:"early-exit connects = membership" ~count:300
    (QCheck.make case_gen)
    (with_case (fun g re ->
         let rp = compile_lbl re in
         let nodes = List.init (Digraph.n_nodes g) Fun.id in
         List.for_all
           (fun src ->
             let r = Regpath.reachable rp g src in
             List.for_all
               (fun dst -> Regpath.connects rp g ~src ~dst = List.mem dst r)
               nodes)
           nodes))

let prop_batch_agrees =
  QCheck.Test.make ~name:"batch = repeated single-source" ~count:200
    (QCheck.make case_gen)
    (with_case (fun g re ->
         let rp = compile_lbl re in
         let srcs = Array.of_list (List.init (Digraph.n_nodes g) Fun.id) in
         let sets = Regpath.reachable_batch rp g srcs in
         let ok = ref true in
         Array.iteri
           (fun i src ->
             if Iset.to_list sets.(i) <> Regpath.reachable rp g src then ok := false)
           srcs;
         !ok))

let prop_naive_subset =
  QCheck.Test.make ~name:"bounded naive results are engine subset" ~count:200
    (QCheck.make case_gen)
    (with_case (fun g re ->
         let rp = compile_lbl re in
         let fast = Regpath.reachable rp g 0 in
         let slow = Regpath.reachable_naive lbl_pred re g 0 ~max_len:5 in
         List.for_all (fun v -> List.mem v fast) slow))

let prop_depth_bound_sound =
  QCheck.Test.make ~name:"finite depth bound really bounds path length"
    ~count:300
    (QCheck.make re_gen)
    (fun re ->
      match Regpath.depth_bound (compile_lbl re) with
      | None -> true (* unbounded: nothing to check *)
      | Some d ->
        (* a chain longer than the bound must not be fully traversable:
           build a d+2-long "x" chain and check nothing at distance > d
           is reached from node 0 *)
        let n = d + 3 in
        let g = build (List.init n string_of_int)
            (List.init (n - 1) (fun i -> (i, "x", i + 1)))
        in
        let rp = compile_lbl re in
        List.for_all (fun v -> v <= d) (Regpath.reachable rp g 0))

let () =
  Alcotest.run "gql_regpath"
    [
      ( "edge cases",
        [
          Alcotest.test_case "one pair per node" `Quick test_one_pair_per_node;
          Alcotest.test_case "empty language" `Quick test_empty_language;
          Alcotest.test_case "ε-accepting start" `Quick test_eps_accepting_start;
          Alcotest.test_case "self-loops" `Quick test_self_loop;
          Alcotest.test_case "unseen symbol at freeze" `Quick test_unseen_symbol;
          Alcotest.test_case "batch vs single" `Quick test_batch_vs_single;
          Alcotest.test_case "scratch across graph sizes" `Quick
            test_scratch_across_sizes;
          Alcotest.test_case "cancelled search" `Quick test_cancelled_search;
          Alcotest.test_case "counters move" `Quick test_counters_move;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_flat_vs_subset;
          QCheck_alcotest.to_alcotest prop_frozen_and_plane_agree;
          QCheck_alcotest.to_alcotest prop_rev_is_transpose;
          QCheck_alcotest.to_alcotest prop_connects_agrees;
          QCheck_alcotest.to_alcotest prop_batch_agrees;
          QCheck_alcotest.to_alcotest prop_naive_subset;
          QCheck_alcotest.to_alcotest prop_depth_bound_sound;
        ] );
    ]
