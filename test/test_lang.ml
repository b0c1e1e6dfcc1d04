(* Tests for Gql_lang: the lexer, the label-regex parser, both textual
   front-ends (errors included) and print->parse round-trips. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- lexer ---------------------------------------------------------------- *)

let test_lexer_tokens () =
  let toks = Gql_lang.Lex.tokens_of_line ~line:1 {|node $a elem /Van.*/ "str" 3.5 ( )|} in
  let open Gql_lang.Lex in
  match toks with
  | [ Ident "node"; Ident "$a"; Ident "elem"; Regex "Van.*"; Str "str";
      Num 3.5; Punct '('; Punct ')' ] ->
    ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_comments () =
  check_int "comment stripped" 1
    (List.length (Gql_lang.Lex.tokens_of_line ~line:1 "word # rest ignored"))

let test_lexer_string_escapes () =
  match Gql_lang.Lex.tokens_of_line ~line:1 {|"a\"b\n"|} with
  | [ Gql_lang.Lex.Str s ] -> check "escapes" true (s = "a\"b\n")
  | _ -> Alcotest.fail "bad string token"

let test_lexer_errors () =
  (match Gql_lang.Lex.tokens_of_line ~line:3 {|"unterminated|} with
  | _ -> Alcotest.fail "should fail"
  | exception Gql_lang.Lex.Error (_, 3) -> ())

let test_tokenise_lines () =
  let lines = Gql_lang.Lex.tokenise "a\n\n# only comment\nb c\n" in
  check_int "two significant lines" 2 (List.length lines);
  check "line numbers" true (List.map fst lines = [ 1; 4 ])

(* --- label regexes ----------------------------------------------------------- *)

let test_label_re () =
  let open Gql_regex.Syntax in
  check "single" true (Gql_lang.Label_re.parse "link" = sym "link");
  check "plus" true (Gql_lang.Label_re.parse "index+" = plus (sym "index"));
  check "alt group star" true
    (Gql_lang.Label_re.parse "(link|index)*" = star (alt (sym "link") (sym "index")));
  check "seq" true
    (Gql_lang.Label_re.parse "link index" = seq (sym "link") (sym "index"));
  check "wildcard dot" true (Gql_lang.Label_re.parse "." = sym "*")

let test_label_re_errors () =
  let bad s =
    match Gql_lang.Label_re.parse s with
    | _ -> false
    | exception Gql_lang.Label_re.Error _ -> true
  in
  check "empty" true (bad "");
  check "unclosed" true (bad "(link");
  check "trailing" true (bad "link )")

let test_label_re_error_columns () =
  (* parse errors carry the 1-based failing column, so a fuzz repro or
     an editor can point at the offending character *)
  let column_of s =
    match Gql_lang.Label_re.parse s with
    | _ -> None
    | exception Gql_lang.Label_re.Error msg -> (
      match String.rindex_opt msg ' ' with
      | Some i ->
        int_of_string_opt (String.sub msg (i + 1) (String.length msg - i - 1))
      | None -> None)
  in
  let check_col s expected =
    match column_of s with
    | Some col -> Alcotest.(check int) (Printf.sprintf "column in %S" s) expected col
    | None -> Alcotest.failf "no column reported for %S" s
  in
  check_col "link )" 6;        (* trailing input after the expression *)
  check_col "(link" 6;         (* unclosed group: ')' expected at end *)
  check_col "*link" 1;         (* postfix star with no atom before it *)
  check_col "" 1               (* empty expression fails at column 1 *)

let test_label_re_roundtrip () =
  List.iter
    (fun s ->
      let re = Gql_lang.Label_re.parse s in
      let re2 = Gql_lang.Label_re.parse (Gql_lang.Label_re.to_string re) in
      check (Printf.sprintf "roundtrip %s" s) true (re = re2))
    [ "link"; "index+"; "(link|index)* ref?"; ". link ." ]

(* --- xmlgl front-end ----------------------------------------------------------- *)

let test_xmlgl_parse_shapes () =
  let p = Gql_lang.Xmlgl_text.parse_program Gql_workload.Queries.q4_src in
  check_int "one rule" 1 (List.length p.Gql_xmlgl.Ast.rules);
  let r = List.hd p.Gql_xmlgl.Ast.rules in
  check_int "seven query nodes" 7 (Array.length r.Gql_xmlgl.Ast.query.q_nodes);
  check_int "six query edges" 6 (List.length r.Gql_xmlgl.Ast.query.q_edges);
  check "well formed" true (Gql_xmlgl.Ast.check_rule r = [])

let test_xmlgl_result_root () =
  let p = Gql_lang.Xmlgl_text.parse_program Gql_workload.Queries.q1_src in
  Alcotest.(check string) "result root" "books" p.Gql_xmlgl.Ast.result_root

let test_xmlgl_predicates () =
  let p = Gql_lang.Xmlgl_text.parse_program {|xmlgl
rule
query
  node $a elem price
  node $v content where self > 10 and self < 20 or self = 99
  node $w content where (self + 1) >= $v
  edge $a $v
  edge $a $w
construct
  node c copy $a
  root c
end
|} in
  let r = List.hd p.Gql_xmlgl.Ast.rules in
  (match r.Gql_xmlgl.Ast.query.q_nodes.(1).Gql_xmlgl.Ast.q_pred with
  | Some (Gql_xmlgl.Ast.Or _) -> ()
  | _ -> Alcotest.fail "or expected at top");
  match r.Gql_xmlgl.Ast.query.q_nodes.(2).Gql_xmlgl.Ast.q_pred with
  | Some (Gql_xmlgl.Ast.Compare (Gql_xmlgl.Ast.Ge, Gql_xmlgl.Ast.Arith _, Gql_xmlgl.Ast.Node_value 1)) -> ()
  | _ -> Alcotest.fail "arith vs node ref expected"

let test_xmlgl_errors () =
  let bad s = Gql_lang.Xmlgl_text.parse_program_result s |> Result.is_error in
  check "unknown node in edge" true
    (bad "xmlgl\nrule\nquery\n  node $a elem x\n  edge $a $zz\nconstruct\n  node c copy $a\n  root c\nend\n");
  check "duplicate node" true
    (bad "xmlgl\nrule\nquery\n  node $a elem x\n  node $a elem y\nconstruct\n  node c copy $a\n  root c\nend\n");
  check "node outside section" true (bad "xmlgl\nrule\n  node $a elem x\nend\n");
  check "end without rule" true (bad "xmlgl\nend\n");
  check "bad kind" true
    (bad "xmlgl\nrule\nquery\n  node $a wiggle x\nconstruct\nend\n")

(* A malformed /regex/ literal is the front end's own parse error, on
   the literal's line, whichever construct holds it. *)
let expect_bad_regex ~what parse src ~line =
  match parse src with
  | _ -> Alcotest.failf "%s: malformed regex accepted" what
  | exception Gql_lang.Lex.Error (msg, l) ->
    check_int (what ^ " line") line l;
    check (what ^ " names the regex") true
      (String.length msg >= 11 && String.sub msg 0 11 = "bad /regex/")

let test_xmlgl_bad_regex () =
  let prog node =
    "xmlgl\nresult r\nrule\nquery\n" ^ node
    ^ "\nconstruct\n  node c copy $b\n  root c\nend\n"
  in
  expect_bad_regex ~what:"content predicate" ~line:5
    Gql_lang.Xmlgl_text.parse_program
    (prog "  node $b content where self ~ /(Van/");
  expect_bad_regex ~what:"element name" ~line:5
    Gql_lang.Xmlgl_text.parse_program (prog "  node $b elem /(B/")

let unnest_src = {|xmlgl
rule
query
  node $a elem FULLADDR
construct
  node w new places
  node u unnest $a
  root w
  edge w u
end
|}

let test_xmlgl_unnest_parse () =
  let p = Gql_lang.Xmlgl_text.parse_program unnest_src in
  let r = List.hd p.Gql_xmlgl.Ast.rules in
  check "unnest node present" true
    (Array.exists
       (fun (n : Gql_xmlgl.Ast.cnode) ->
         match n.c_kind with Gql_xmlgl.Ast.C_unnest _ -> true | _ -> false)
       r.Gql_xmlgl.Ast.construction.c_nodes);
  let printed = Gql_lang.Pp.xmlgl_program p in
  check "roundtrips" true (Gql_lang.Xmlgl_text.parse_program printed = p)

let test_xmlgl_roundtrip () =
  List.iter
    (fun (name, src) ->
      let p = Gql_lang.Xmlgl_text.parse_program src in
      let printed = Gql_lang.Pp.xmlgl_program p in
      let p2 = Gql_lang.Xmlgl_text.parse_program printed in
      (* node renaming aside, the structures must be identical *)
      check (name ^ " roundtrip") true (p = p2))
    [
      ("q1", Gql_workload.Queries.q1_src);
      ("q2", Gql_workload.Queries.q2_src);
      ("q3", Gql_workload.Queries.q3_src);
      ("q4", Gql_workload.Queries.q4_src);
      ("q5", Gql_workload.Queries.q5_src);
      ("q6", Gql_workload.Queries.q6_src);
      ("q7", Gql_workload.Queries.q7_src);
      ("q8", Gql_workload.Queries.q8_src);
      ("q9", Gql_workload.Queries.q9_src);
    ]

(* --- wglog front-end ------------------------------------------------------------ *)

let test_wglog_parse_shapes () =
  let p = Gql_lang.Wglog_text.parse_program Gql_workload.Queries.q12_src in
  let r = List.hd p.Gql_wglog.Ast.rules in
  check_int "three nodes" 3 (Array.length r.Gql_wglog.Ast.nodes);
  check_int "three edges" 3 (List.length r.Gql_wglog.Ast.edges);
  check "has regex edge" true
    (List.exists
       (fun (e : Gql_wglog.Ast.edge) ->
         match e.e_mode with Gql_wglog.Ast.Regex _ -> true | _ -> false)
       r.Gql_wglog.Ast.edges)

let test_wglog_conditions () =
  let p = Gql_lang.Wglog_text.parse_program {|wglog
rule
  node m Menu
  value v where > 10 and <= 20 and /cheap/
  edge m price v
  cnode l rest-list
  collect l member m
end
|} in
  let r = List.hd p.Gql_wglog.Ast.rules in
  check_int "three conditions" 3 (List.length r.Gql_wglog.Ast.nodes.(1).Gql_wglog.Ast.n_cond)

let test_wglog_errors () =
  let bad s = Gql_lang.Wglog_text.parse_program_result s |> Result.is_error in
  check "unknown node" true (bad "wglog\nrule\n  edge a offers b\nend\n");
  check "bad path" true
    (bad "wglog\nrule\n  node a Document\n  node b Document\n  pathedge a ((( b\nend\n");
  check "garbage" true (bad "wglog\nrule\n  frobnicate\nend\n")

let test_wglog_bad_regex () =
  expect_bad_regex ~what:"value condition" ~line:4
    (Gql_lang.Wglog_text.parse_program ?schema:None)
    "wglog\nrule\n  node p PERSON\n  value v where /(x/\n  edge p name v\n\
     \  cedge p odd p\nend\n"

let test_wglog_roundtrip () =
  List.iter
    (fun (name, src) ->
      let p = Gql_lang.Wglog_text.parse_program src in
      let printed = Gql_lang.Pp.wglog_program p in
      let p2 = Gql_lang.Wglog_text.parse_program printed in
      check (name ^ " roundtrip") true
        (p.Gql_wglog.Ast.rules = p2.Gql_wglog.Ast.rules))
    [
      ("q10", Gql_workload.Queries.q10_src);
      ("q11", Gql_workload.Queries.q11_src);
      ("q12", Gql_workload.Queries.q12_src);
    ]

let test_wglog_schema_attached () =
  let p =
    Gql_lang.Wglog_text.parse_program ~schema:Gql_wglog.Schema.restaurant_schema
      Gql_workload.Queries.q10_src
  in
  check "schema kept" true (p.Gql_wglog.Ast.schema <> None);
  Alcotest.(check (list string)) "schema-checks clean" []
    (Gql_wglog.Ast.check_program p)

(* --- language sniffing ---------------------------------------------------- *)

(* [language_of_source] keys on the first word of the first significant
   line only, so programs *mentioning* MATCH/RETURN in labels must not
   be misrouted to the textual MATCH front-end. *)
let test_sniff_match () =
  let lang src = Gql_core.Gql.language_of_source src in
  check "match upper" true (lang "MATCH (v:a)\nRETURN v\n" = `Match);
  check "match lower" true (lang "match (v)\nreturn v\n" = `Match);
  check "leading comment and blank" true
    (lang "\n# query\nMATCH (v)\nRETURN v\n" = `Match);
  check "matchx is not match" true (lang "matchx (v)\nRETURN v\n" = `Unknown);
  check "match glued to paren is unknown" true
    (lang "match(v)\nRETURN v\n" = `Unknown)

let test_sniff_negative () =
  let lang src = Gql_core.Gql.language_of_source src in
  (* a WG-Log program whose node labels are literally MATCH / RETURN *)
  check "wglog with match labels" true
    (lang
       "wglog\nrule\n  node a MATCH\n  node b RETURN\n  edge a match b\nend\n"
    = `Wglog);
  check "xmlgl with match label" true
    (lang
       "xmlgl\nrule\nquery\n  node $a elem MATCH\nconstruct\n  node c copy $a\n  root c\nend\n"
    = `Xmlgl);
  check "workload q1 still xmlgl" true
    (lang Gql_workload.Queries.q1_src = `Xmlgl);
  check "workload q10 still wglog" true
    (lang Gql_workload.Queries.q10_src = `Wglog)

(* Fuzz: random declaration-shaped lines must parse or raise Parse_error,
   never crash. *)
let fuzz_line_gen =
  QCheck.Gen.(
    map (String.concat " ")
      (list_size (int_bound 6)
         (oneofl
            [ "node"; "$a"; "$b"; "elem"; "content"; "attr"; "edge"; "deep";
              "where"; "self"; ">"; "<"; "("; ")"; "construct"; "query";
              "rule"; "end"; "copy"; "new"; "root"; "\"str\""; "3"; "/re/";
              "~"; "and"; "or" ])))

let prop_xmlgl_parser_total =
  QCheck.Test.make ~name:"xmlgl parser total on token soup" ~count:300
    QCheck.(make Gen.(map (String.concat "\n") (list_size (int_bound 8) fuzz_line_gen)))
    (fun src ->
      match Gql_lang.Xmlgl_text.parse_program ("xmlgl\n" ^ src) with
      | _ -> true
      | exception Gql_lang.Xmlgl_text.Parse_error _ -> true)

let prop_wglog_parser_total =
  QCheck.Test.make ~name:"wglog parser total on token soup" ~count:300
    QCheck.(make Gen.(map (String.concat "\n") (list_size (int_bound 8) fuzz_line_gen)))
    (fun src ->
      match Gql_lang.Wglog_text.parse_program ("wglog\n" ^ src) with
      | _ -> true
      | exception Gql_lang.Wglog_text.Parse_error _ -> true)

let () =
  Alcotest.run "gql_lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "string escapes" `Quick test_lexer_string_escapes;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "tokenise" `Quick test_tokenise_lines;
        ] );
      ( "label_re",
        [
          Alcotest.test_case "parse" `Quick test_label_re;
          Alcotest.test_case "errors" `Quick test_label_re_errors;
          Alcotest.test_case "error columns" `Quick test_label_re_error_columns;
          Alcotest.test_case "roundtrip" `Quick test_label_re_roundtrip;
        ] );
      ( "xmlgl",
        [
          Alcotest.test_case "shapes" `Quick test_xmlgl_parse_shapes;
          Alcotest.test_case "result root" `Quick test_xmlgl_result_root;
          Alcotest.test_case "predicates" `Quick test_xmlgl_predicates;
          Alcotest.test_case "errors" `Quick test_xmlgl_errors;
          Alcotest.test_case "unnest" `Quick test_xmlgl_unnest_parse;
          Alcotest.test_case "roundtrip" `Quick test_xmlgl_roundtrip;
          Alcotest.test_case "malformed regex" `Quick test_xmlgl_bad_regex;
        ] );
      ( "wglog",
        [
          Alcotest.test_case "shapes" `Quick test_wglog_parse_shapes;
          Alcotest.test_case "conditions" `Quick test_wglog_conditions;
          Alcotest.test_case "errors" `Quick test_wglog_errors;
          Alcotest.test_case "roundtrip" `Quick test_wglog_roundtrip;
          Alcotest.test_case "schema attach" `Quick test_wglog_schema_attached;
          QCheck_alcotest.to_alcotest prop_xmlgl_parser_total;
          QCheck_alcotest.to_alcotest prop_wglog_parser_total;
          Alcotest.test_case "malformed regex" `Quick test_wglog_bad_regex;
        ] );
      ( "sniff",
        [
          Alcotest.test_case "match" `Quick test_sniff_match;
          Alcotest.test_case "negative" `Quick test_sniff_negative;
        ] );
    ]
