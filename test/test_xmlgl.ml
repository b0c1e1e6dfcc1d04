(* Tests for Gql_xmlgl: matching semantics feature by feature,
   construction semantics construct by construct, well-formedness
   checks, and the schema reading of XML-GL (incl. DTD interchange). *)

open Gql_xmlgl

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let load s = Support.encode_string s

let count ?index data q = List.length (Matching.run ?index data q)

let people =
  load
    {|<people>
        <PERSON id="p1"><firstname>Alice</firstname><lastname>Smith</lastname>
          <age>30</age><salary>20000</salary>
          <FULLADDR><city>Milano</city></FULLADDR></PERSON>
        <PERSON id="p2"><firstname>Bob</firstname><lastname>Jones</lastname>
          <age>65</age><salary>30000</salary></PERSON>
        <PERSON id="p3"><firstname>Carla</firstname><lastname>Rossi</lastname>
          <age>17</age><salary>26000</salary>
          <FULLADDR><city>Como</city></FULLADDR></PERSON>
      </people>|}

(* --- matching: selection -------------------------------------------------- *)

let test_select_by_name () =
  let b = Ast.Build.create () in
  let _ = Ast.Build.q_elem b "PERSON" in
  let r = { (Ast.Build.finish b) with Ast.construction = { Ast.c_nodes = [||]; c_edges = []; c_roots = [] } } in
  check_int "three persons" 3 (count people r.Ast.query)

let test_select_wildcard () =
  let b = Ast.Build.create () in
  let _ = Ast.Build.q_any b () in
  let q = (Ast.Build.finish b).Ast.query in
  (* every complex node: people + 3 persons + 3x4 leaves + 2 addr + 2 city *)
  check "many elements" true (count people q > 10)

let test_select_name_regex () =
  let b = Ast.Build.create () in
  let _ = Ast.Build.qnode b (Ast.Q_elem (Ast.Name_re "F.*")) in
  let q = (Ast.Build.finish b).Ast.query in
  check_int "FULLADDR twice" 2 (count people q)

let test_containment_edge () =
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "PERSON" in
  let a = Ast.Build.q_elem b "FULLADDR" in
  Ast.Build.qedge b p a;
  check_int "two persons with address" 2
    (count people (Ast.Build.finish b).Ast.query)

let test_content_predicate () =
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "age" in
  let c =
    Ast.Build.q_content b
      ~pred:(Ast.Compare (Ast.Gt, Ast.Self, Ast.Const (Gql_data.Value.int 20)))
      ()
  in
  Ast.Build.qedge b p c;
  check_int "ages over 20" 2 (count people (Ast.Build.finish b).Ast.query)

let test_attr_edge () =
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "PERSON" in
  let a =
    Ast.Build.q_attr_node b
      ~pred:(Ast.Compare (Ast.Eq, Ast.Self, Ast.Const (Gql_data.Value.string "p2")))
      ()
  in
  Ast.Build.qattr b p "id" a;
  check_int "person p2" 1 (count people (Ast.Build.finish b).Ast.query)

let test_deep_edge () =
  let b = Ast.Build.create () in
  let root = Ast.Build.q_elem b "people" in
  let city = Ast.Build.q_elem b "city" in
  Ast.Build.qdeep b root city;
  check_int "cities at depth" 2 (count people (Ast.Build.finish b).Ast.query);
  (* deep is one-or-more: an element is not its own descendant *)
  let b2 = Ast.Build.create () in
  let x = Ast.Build.q_elem b2 "city" in
  let y = Ast.Build.q_elem b2 "city" in
  Ast.Build.qdeep b2 x y;
  check_int "city under city" 0 (count people (Ast.Build.finish b2).Ast.query)

let test_absent_edge () =
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "PERSON" in
  let a = Ast.Build.q_elem b "FULLADDR" in
  Ast.Build.qabsent b p a;
  check_int "one person without address" 1
    (count people (Ast.Build.finish b).Ast.query)

let test_position_pin () =
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "PERSON" in
  let first = Ast.Build.q_any b () in
  Ast.Build.qedge b ~position:0 p first;
  let bindings = Matching.run people (Ast.Build.finish b).Ast.query in
  check_int "three first children" 3 (List.length bindings);
  check "all are firstname" true
    (List.for_all
       (fun bd -> Gql_data.Graph.label people bd.(1) = Some "firstname")
       bindings)

let doc_ordered =
  load {|<r><e><a/><b/></e><e><b/><a/></e></r>|}

let test_ordered_tick () =
  let mk ordered =
    let b = Ast.Build.create () in
    let e = Ast.Build.q_elem b "e" in
    let a = Ast.Build.q_elem b "a" in
    let bb = Ast.Build.q_elem b "b" in
    Ast.Build.qedge b ~ordered e a;
    Ast.Build.qedge b ~ordered e bb;
    (Ast.Build.finish b).Ast.query
  in
  check_int "unordered matches both" 2 (count doc_ordered (mk false));
  check_int "ordered matches one" 1 (count doc_ordered (mk true))

let test_value_join () =
  (* shared content circle between two parents = value equality *)
  let data =
    load
      {|<db><l><v>x</v><v>y</v></l><r><w>y</w><w>z</w></r></db>|}
  in
  let b = Ast.Build.create () in
  let v = Ast.Build.q_elem b "v" in
  let w = Ast.Build.q_elem b "w" in
  let shared = Ast.Build.q_content b () in
  Ast.Build.qedge b v shared;
  Ast.Build.qedge b w shared;
  let bindings = Matching.run data (Ast.Build.finish b).Ast.query in
  check_int "one joining pair" 1 (List.length bindings)

let test_cross_node_predicate () =
  (* persons whose salary is at least 1000 * age *)
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "PERSON" in
  let age = Ast.Build.q_elem b "age" in
  let agev = Ast.Build.q_content b () in
  let sal = Ast.Build.q_elem b "salary" in
  let salv =
    Ast.Build.q_content b
      ~pred:
        (Ast.Compare
           ( Ast.Ge,
             Ast.Self,
             Ast.Arith (Ast.Mul, Ast.Node_value 2, Ast.Const (Gql_data.Value.int 1000)) ))
      ()
  in
  Ast.Build.qedge b p age;
  Ast.Build.qedge b age agev;
  Ast.Build.qedge b p sal;
  Ast.Build.qedge b sal salv;
  (* Alice: 20000 >= 30000 no; Bob: 30000 >= 65000 no; Carla: 26000 >= 17000 yes *)
  check_int "salary >= age*1000" 1
    (count people (Ast.Build.finish b).Ast.query)

let test_regex_predicate () =
  let b = Ast.Build.create () in
  let ln = Ast.Build.q_elem b "lastname" in
  let v = Ast.Build.q_content b ~pred:(Ast.Matches (Ast.Self, "S.*th")) () in
  Ast.Build.qedge b ln v;
  check_int "Smith" 1 (count people (Ast.Build.finish b).Ast.query)

let test_ref_edge () =
  let data = load {|<db><a id="x" ref="y"/><a id="y"/></db>|} in
  let b = Ast.Build.create () in
  let src = Ast.Build.q_elem b "a" in
  let dst = Ast.Build.q_elem b "a" in
  Ast.Build.qref b src dst;
  check_int "one ref pair" 1 (count data (Ast.Build.finish b).Ast.query)

(* --- construction ---------------------------------------------------------- *)

let run_rule data rule = Engine.run_rule data rule

let simple_rule ~construct =
  (* query: PERSON with lastname circle *)
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "PERSON" in
  let ln = Ast.Build.q_elem b "lastname" in
  let v = Ast.Build.q_content b () in
  Ast.Build.qedge b p ln;
  Ast.Build.qedge b ln v;
  construct b ~person:p ~lastname:ln ~value:v;
  Ast.Build.finish b

let names_of nodes =
  List.filter_map
    (function Gql_xml.Tree.Element e -> Some e.Gql_xml.Tree.name | _ -> None)
    nodes

let test_construct_copy_deep () =
  let rule =
    simple_rule ~construct:(fun b ~person ~lastname:_ ~value:_ ->
        let c = Ast.Build.c_copy b ~deep:true person in
        Ast.Build.root b c)
  in
  let out = run_rule people rule in
  check_int "three persons" 3 (List.length out);
  match out with
  | Gql_xml.Tree.Element e :: _ ->
    check "deep copy has children" true (List.length e.Gql_xml.Tree.children >= 4);
    check "attrs kept" true (Gql_xml.Tree.attr e "id" <> None)
  | _ -> Alcotest.fail "expected elements"

let test_construct_copy_shallow_projection () =
  let rule =
    simple_rule ~construct:(fun b ~person ~lastname ~value:_ ->
        let c = Ast.Build.c_copy b person in
        let ln = Ast.Build.c_copy b ~deep:true lastname in
        Ast.Build.root b c;
        Ast.Build.cedge b ~ord:0 c ln)
  in
  match run_rule people rule with
  | Gql_xml.Tree.Element e :: _ ->
    Alcotest.(check (list string)) "only lastname projected" [ "lastname" ]
      (names_of e.Gql_xml.Tree.children)
  | _ -> Alcotest.fail "expected elements"

let test_construct_value_and_const () =
  let rule =
    simple_rule ~construct:(fun b ~person:_ ~lastname:_ ~value ->
        let w = Ast.Build.c_elem b "names" in
        let v = Ast.Build.c_value b value in
        let k = Ast.Build.c_const b (Gql_data.Value.string "!") in
        Ast.Build.root b w;
        Ast.Build.cedge b ~ord:0 w v;
        Ast.Build.cedge b ~ord:1 w k)
  in
  match run_rule people rule with
  | [ Gql_xml.Tree.Element e ] ->
    (* one wrapper (fresh element instantiated once), all three distinct
       lastname values inside, then the constant *)
    check_int "three values + bang" 4 (List.length e.Gql_xml.Tree.children);
    check_str "wrapper" "names" e.Gql_xml.Tree.name
  | _ -> Alcotest.fail "expected a single names element"

let test_construct_all_triangle () =
  let rule =
    simple_rule ~construct:(fun b ~person ~lastname:_ ~value:_ ->
        let w = Ast.Build.c_elem b "RESULT" in
        let t = Ast.Build.c_all b person in
        Ast.Build.root b w;
        Ast.Build.cedge b ~ord:0 w t)
  in
  match run_rule people rule with
  | [ Gql_xml.Tree.Element e ] ->
    check_int "collects all three" 3 (List.length e.Gql_xml.Tree.children)
  | _ -> Alcotest.fail "expected one RESULT"

let test_construct_as_attr () =
  let rule =
    simple_rule ~construct:(fun b ~person:_ ~lastname:_ ~value ->
        let w = Ast.Build.c_elem b "tag" in
        let v = Ast.Build.c_value b value in
        Ast.Build.root b w;
        Ast.Build.cedge b ~as_attr:"name" ~ord:0 w v)
  in
  match run_rule people rule with
  | [ Gql_xml.Tree.Element e ] ->
    check "attribute set" true (Gql_xml.Tree.attr e "name" <> None)
  | _ -> Alcotest.fail "expected one element"

let test_construct_group () =
  (* group persons by city of their address *)
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "PERSON" in
  let addr = Ast.Build.q_elem b "FULLADDR" in
  let city = Ast.Build.q_elem b "city" in
  let cval = Ast.Build.q_content b () in
  Ast.Build.qedge b p addr;
  Ast.Build.qedge b addr city;
  Ast.Build.qedge b city cval;
  let g = Ast.Build.c_group b ~by:cval in
  let bucket = Ast.Build.c_elem b "city-group" in
  let key = Ast.Build.c_value b cval in
  let member = Ast.Build.c_copy b p in
  Ast.Build.root b g;
  Ast.Build.cedge b ~ord:0 g bucket;
  Ast.Build.cedge b ~as_attr:"name" ~ord:0 bucket key;
  Ast.Build.cedge b ~ord:1 bucket member;
  let out = run_rule people (Ast.Build.finish b) in
  check_int "two city groups" 2 (List.length out);
  List.iter
    (function
      | Gql_xml.Tree.Element e ->
        check_str "bucket name" "city-group" e.Gql_xml.Tree.name;
        check "has key attr" true (Gql_xml.Tree.attr e "name" <> None);
        check_int "one member each" 1 (List.length e.Gql_xml.Tree.children)
      | _ -> Alcotest.fail "element expected")
    out

let test_construct_unnest () =
  (* flatten FULLADDR: emit its children (cities) directly *)
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "PERSON" in
  let a = Ast.Build.q_elem b "FULLADDR" in
  Ast.Build.qedge b p a;
  let w = Ast.Build.c_elem b "places" in
  let u = Ast.Build.c_unnest b a in
  Ast.Build.root b w;
  Ast.Build.cedge b ~ord:0 w u;
  (match run_rule people (Ast.Build.finish b) with
  | [ Gql_xml.Tree.Element e ] ->
    Alcotest.(check (list string)) "cities flattened" [ "city"; "city" ]
      (names_of e.Gql_xml.Tree.children)
  | _ -> Alcotest.fail "expected one places element");
  (* nesting = group + new element: regroup persons per city *)
  ()

let test_multi_rule_program () =
  let p = Gql_lang.Xmlgl_text.parse_program
    {|xmlgl
result combo
rule
query
  node $a elem firstname
construct
  node c copy $a deep
  root c
end
rule
query
  node $b elem lastname
construct
  node c copy $b deep
  root c
end
|} in
  let out = Engine.run_program people p in
  check_str "root name" "combo" out.Gql_xml.Tree.name;
  check_int "3 + 3 results" 6 (List.length out.Gql_xml.Tree.children)

let test_construct_edge_cases () =
  (* value_of on an element node: its string-value *)
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "firstname" in
  let w = Ast.Build.c_elem b "names" in
  let v = Ast.Build.c_value b p in
  Ast.Build.root b w;
  Ast.Build.cedge b ~ord:0 w v;
  (match run_rule people (Ast.Build.finish b) with
  | [ Gql_xml.Tree.Element e ] ->
    check_int "three distinct names" 3 (List.length e.Gql_xml.Tree.children)
  | _ -> Alcotest.fail "one wrapper expected");
  (* group with zero matches: empty result, no crash *)
  let b2 = Ast.Build.create () in
  let x = Ast.Build.q_elem b2 "NOSUCH" in
  let c = Ast.Build.q_content b2 () in
  Ast.Build.qedge b2 x c;
  let g = Ast.Build.c_group b2 ~by:c in
  let bucket = Ast.Build.c_elem b2 "bucket" in
  Ast.Build.root b2 g;
  Ast.Build.cedge b2 ~ord:0 g bucket;
  check_int "empty group" 0 (List.length (run_rule people (Ast.Build.finish b2)));
  (* as_attr referencing an element: string-value of the element *)
  let b3 = Ast.Build.create () in
  let pp = Ast.Build.q_elem b3 "PERSON" in
  let ln = Ast.Build.q_elem b3 "lastname" in
  Ast.Build.qedge b3 pp ln;
  let tag = Ast.Build.c_elem b3 ~per:pp "tag" in
  let lnc = Ast.Build.c_copy b3 ln in
  Ast.Build.root b3 tag;
  Ast.Build.cedge b3 ~as_attr:"surname" ~ord:0 tag lnc;
  (match run_rule people (Ast.Build.finish b3) with
  | outs ->
    check_int "one tag per person" 3 (List.length outs);
    List.iter
      (function
        | Gql_xml.Tree.Element e ->
          check "surname set" true (Gql_xml.Tree.attr e "surname" <> None)
        | _ -> Alcotest.fail "element")
      outs)

let test_aggregates () =
  (* per-group aggregates: average salary per employer, count of persons *)
  let src = {|xmlgl
result stats
rule
query
  node $p elem PERSON
  node $s elem salary
  node $sv content
  edge $p $s
  edge $s $sv
construct
  node w new summary
  node n count $p
  node total sum $sv
  node lo min $sv
  node hi max $sv
  node mean avg $sv
  root w
  edge w n attr persons
  edge w total attr total
  edge w lo attr min
  edge w hi attr max
  edge w mean attr mean
end
|} in
  let p = Gql_lang.Xmlgl_text.parse_program src in
  let out = Engine.run_program people p in
  match out.Gql_xml.Tree.children with
  | [ Gql_xml.Tree.Element e ] ->
    let attr name = Option.get (Gql_xml.Tree.attr e name) in
    check_str "count" "3" (attr "persons");
    (* salaries: 20000 + 30000 + 26000 *)
    check_str "sum" "76000.0" (attr "total");
    check_str "min" "20000.0" (attr "min");
    check_str "max" "30000.0" (attr "max");
    check "mean" true (float_of_string (attr "mean") > 25333.0
                       && float_of_string (attr "mean") < 25334.0)
  | _ -> Alcotest.fail "one summary expected"

let test_aggregate_empty () =
  (* aggregates over zero matches: count 0; numeric aggregates vanish *)
  let src = {|xmlgl
rule
query
  node $p elem NOPE
construct
  node w new summary
  node n count $p
  node s sum $p
  root w
  edge w n
  edge w s
end
|} in
  let p = Gql_lang.Xmlgl_text.parse_program src in
  let out = Engine.run_program people p in
  match out.Gql_xml.Tree.children with
  | [ Gql_xml.Tree.Element e ] ->
    (match e.Gql_xml.Tree.children with
    | [ Gql_xml.Tree.Text "0" ] -> ()
    | _ -> Alcotest.fail "expected count 0 and no sum node")
  | _ -> Alcotest.fail "one summary expected"

let test_aggregate_count_dispatch () =
  (* Count is answered by the outer aggregate dispatch; the numeric fold
     it must never reach now guards itself with the typed
     Construct.Invalid_query instead of an assert.  Count therefore
     works even when no source value is numeric — and Sum over the same
     bindings is undefined (None), not an error. *)
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "PERSON" in
  let n = Ast.Build.q_elem b "firstname" in
  Ast.Build.qedge b p n;
  let q = (Ast.Build.finish b).Ast.query in
  let ctx = Matching.run people q in
  (match Construct.aggregate_value people ctx Ast.Count n with
  | Some v ->
    check_str "count over non-numeric source" "3" (Gql_data.Value.to_string v)
  | None -> Alcotest.fail "count must always be defined");
  check "sum over non-numeric source is None" true
    (Construct.aggregate_value people ctx Ast.Sum n = None)

let test_aggregate_grouped () =
  (* aggregates respect group narrowing: persons per city *)
  let src = {|xmlgl
result per-city
rule
query
  node $p elem PERSON
  node $a elem FULLADDR
  node $c elem city
  node $cv content
  edge $p $a
  edge $a $c
  edge $c $cv
construct
  node g group $cv
  node bucket new city
  node key value $cv
  node n count $p
  root g
  edge g bucket
  edge bucket key attr name
  edge bucket n attr persons
end
|} in
  let p = Gql_lang.Xmlgl_text.parse_program src in
  let out = Engine.run_program people p in
  check_int "two cities" 2 (List.length out.Gql_xml.Tree.children);
  List.iter
    (function
      | Gql_xml.Tree.Element e ->
        check_str "one person per city" "1"
          (Option.get (Gql_xml.Tree.attr e "persons"))
      | _ -> Alcotest.fail "element")
    out.Gql_xml.Tree.children

let test_multiple_roots_order () =
  let b = Ast.Build.create () in
  let p = Ast.Build.q_elem b "PERSON" in
  ignore p;
  let first = Ast.Build.c_const b (Gql_data.Value.string "one") in
  let second = Ast.Build.c_const b (Gql_data.Value.string "two") in
  Ast.Build.root b first;
  Ast.Build.root b second;
  match run_rule people (Ast.Build.finish b) with
  | [ Gql_xml.Tree.Text "one"; Gql_xml.Tree.Text "two" ] -> ()
  | _ -> Alcotest.fail "roots must instantiate in declaration order"

let test_predicate_units () =
  let env = { Predicate.data = people; binding = [||] } in
  let self = Some (Gql_data.Value.int 10) in
  let ev p = Predicate.compile p env ~self in
  check "eq" true (ev (Ast.Compare (Ast.Eq, Ast.Self, Ast.Const (Gql_data.Value.string "10"))));
  check "arith chain" true
    (ev (Ast.Compare (Ast.Eq,
        Ast.Arith (Ast.Add, Ast.Self, Ast.Arith (Ast.Mul, Ast.Self, Ast.Const (Gql_data.Value.int 2))),
        Ast.Const (Gql_data.Value.int 30))));
  check "div by zero is non-match" false
    (ev (Ast.Compare (Ast.Eq,
        Ast.Arith (Ast.Div, Ast.Self, Ast.Const (Gql_data.Value.int 0)),
        Ast.Self)));
  check "unbound node ref is non-match" false
    (ev (Ast.Compare (Ast.Eq, Ast.Self, Ast.Node_value 99)));
  check "not" true (ev (Ast.Not (Ast.Compare (Ast.Lt, Ast.Self, Ast.Const (Gql_data.Value.int 5)))));
  check "contains" true
    (Predicate.compile (Ast.Contains_str (Ast.Self, "lo wo")) env
       ~self:(Some (Gql_data.Value.string "hello world")));
  check "missing self is non-match" false
    (Predicate.compile (Ast.Compare (Ast.Eq, Ast.Self, Ast.Self)) env ~self:None)

(* Substring predicates compare in place at every offset. *)
let test_string_predicates () =
  let env = { Predicate.data = people; binding = [||] } in
  let on subject p = Predicate.compile p env ~self:(Some (Gql_data.Value.string subject)) in
  let contains s needle = on s (Ast.Contains_str (Ast.Self, needle)) in
  let starts s prefix = on s (Ast.Starts_with (Ast.Self, prefix)) in
  check "empty needle" true (contains "abc" "");
  check "empty needle, empty subject" true (contains "" "");
  check "needle longer than subject" false (contains "ab" "abc");
  check "match at the last offset" true (contains "abcd" "cd");
  check "whole subject" true (contains "abcd" "abcd");
  check "no match" false (contains "abcabd" "abe");
  check "near miss at the end" false (contains "abcd" "ce");
  check "empty prefix" true (starts "abc" "");
  check "prefix longer than subject" false (starts "ab" "abc");
  check "prefix" true (starts "abc" "ab");
  check "not a prefix" false (starts "abc" "bc")

let test_result_document_order () =
  (* construction instances follow match (document) order: a query over
     ordered siblings must emit them in that order *)
  let data = load {|<r><x>1</x><x>2</x><x>3</x></r>|} in
  let b = Ast.Build.create () in
  let x = Ast.Build.q_elem b "x" in
  let c = Ast.Build.c_copy b ~deep:true x in
  Ast.Build.root b c;
  let out = run_rule data (Ast.Build.finish b) in
  let texts = List.map Gql_xml.Tree.text_content out in
  Alcotest.(check (list string)) "document order" [ "1"; "2"; "3" ] texts

(* --- well-formedness -------------------------------------------------------- *)

let test_check_rule_errors () =
  (* construction root missing *)
  let b = Ast.Build.create () in
  let _ = Ast.Build.q_elem b "x" in
  let r = Ast.Build.finish b in
  check "no root flagged" true (Ast.check_rule r <> []);
  (* edge out of range *)
  let r2 =
    { Ast.query = { Ast.q_nodes = [||]; q_edges = [ { Ast.q_src = 0; q_kind_e = Ast.Deep; q_dst = 1 } ] };
      construction = { Ast.c_nodes = [| { Ast.c_kind = Ast.C_elem { name = "r"; per = None } } |]; c_edges = []; c_roots = [ 0 ] } }
  in
  check "range flagged" true (Ast.check_rule r2 <> []);
  (* circle as source *)
  let b3 = Ast.Build.create () in
  let c = Ast.Build.q_content b3 () in
  let e = Ast.Build.q_elem b3 "x" in
  Ast.Build.qedge b3 c e;
  let rt = Ast.Build.c_elem b3 "r" in
  Ast.Build.root b3 rt;
  check "circle source flagged" true (Ast.check_rule (Ast.Build.finish b3) <> [])

let test_engine_rejects_ill_formed () =
  let b = Ast.Build.create () in
  let _ = Ast.Build.q_elem b "x" in
  let r = Ast.Build.finish b in
  match Engine.run_rule people r with
  | _ -> Alcotest.fail "should raise"
  | exception Engine.Ill_formed _ -> ()

(* --- schema ------------------------------------------------------------------ *)

let valid_book =
  load
    {|<BOOK isbn="1"><price>10</price><title>t</title><AUTHOR><first-name>A</first-name><last-name>B</last-name></AUTHOR></BOOK>|}

let test_schema_unordered_accepts () =
  (* price before title: fine for the unordered XML-GL schema, fatal for
     the DTD — the paper's expressiveness point *)
  check "unordered schema accepts" true
    (Schema.is_valid Schema.book_schema valid_book)

let test_schema_violations () =
  let missing_price = load {|<BOOK isbn="1"><title>t</title></BOOK>|} in
  check "missing price" false (Schema.is_valid Schema.book_schema missing_price);
  let two_titles = load {|<BOOK isbn="1"><title>a</title><title>b</title><price>1</price></BOOK>|} in
  check "two titles" false (Schema.is_valid Schema.book_schema two_titles);
  let no_isbn = load {|<BOOK><price>1</price></BOOK>|} in
  check "missing isbn" false (Schema.is_valid Schema.book_schema no_isbn);
  let stray = load {|<BOOK isbn="1"><price>1</price><extra/></BOOK>|} in
  check "undeclared child" false (Schema.is_valid Schema.book_schema stray)

let test_schema_ordered_decl () =
  let author_wrong = load {|<AUTHOR><last-name>B</last-name><first-name>A</first-name></AUTHOR>|} in
  let s = { Schema.book_schema with Schema.root = Some "AUTHOR" } in
  check "ordered AUTHOR rejects swap" false (Schema.is_valid s author_wrong)

let test_of_dtd () =
  let s = Schema.of_dtd Gql_workload.Gen.book_dtd in
  check_int "declarations carried" 7 (List.length s.Schema.decls);
  (* of_dtd keeps DTD ordering semantics *)
  let d = List.find (fun d -> d.Schema.d_name = "BOOK") s.Schema.decls in
  check "ordered" true d.Schema.d_ordered;
  check "isbn required" true (List.mem ("isbn", true) d.Schema.d_attrs)

let test_to_dtd () =
  (* unordered content has no DTD equivalent *)
  (match Schema.to_dtd Schema.book_schema with
  | _ -> Alcotest.fail "unordered must not translate"
  | exception Schema.Not_translatable _ -> ());
  let dtd = Schema.to_dtd ~force_order:true Schema.book_schema in
  check "book present" true
    (Gql_dtd.Ast.content_model dtd "BOOK" <> None)

let test_dtd_roundtrip_agreement () =
  (* DTD -> XML-GL schema: both validators agree on clean and defective
     generated corpora *)
  let s = Schema.of_dtd Gql_workload.Gen.book_dtd in
  List.iter
    (fun (seed, defect_rate) ->
      let doc = Gql_workload.Gen.bibliography ~seed ~defect_rate 15 in
      let dtd_ok = Gql_dtd.Validate.is_valid Gql_workload.Gen.book_dtd doc in
      let g, _ = Gql_data.Codec.encode doc in
      let gl_ok = Schema.is_valid s g in
      check (Printf.sprintf "agreement seed=%d rate=%.1f" seed defect_rate)
        true (dtd_ok = gl_ok))
    [ (1, 0.0); (2, 0.0); (3, 0.5); (4, 1.0); (5, 0.8) ]

let test_flatten_seq_errors () =
  match Schema.flatten_seq Gql_regex.Syntax.(alt (sym "a") (sym "b")) with
  | _ -> Alcotest.fail "choice is not flat"
  | exception Schema.Not_translatable _ -> ()

let () =
  Alcotest.run "gql_xmlgl"
    [
      ( "matching",
        [
          Alcotest.test_case "select by name" `Quick test_select_by_name;
          Alcotest.test_case "wildcard" `Quick test_select_wildcard;
          Alcotest.test_case "name regex" `Quick test_select_name_regex;
          Alcotest.test_case "containment" `Quick test_containment_edge;
          Alcotest.test_case "content predicate" `Quick test_content_predicate;
          Alcotest.test_case "attribute edge" `Quick test_attr_edge;
          Alcotest.test_case "deep edge" `Quick test_deep_edge;
          Alcotest.test_case "absent edge" `Quick test_absent_edge;
          Alcotest.test_case "position pin" `Quick test_position_pin;
          Alcotest.test_case "ordered tick" `Quick test_ordered_tick;
          Alcotest.test_case "value join" `Quick test_value_join;
          Alcotest.test_case "cross-node predicate" `Quick test_cross_node_predicate;
          Alcotest.test_case "regex predicate" `Quick test_regex_predicate;
          Alcotest.test_case "ref edge" `Quick test_ref_edge;
        ] );
      ( "construction",
        [
          Alcotest.test_case "copy deep" `Quick test_construct_copy_deep;
          Alcotest.test_case "copy shallow + projection" `Quick test_construct_copy_shallow_projection;
          Alcotest.test_case "value and const" `Quick test_construct_value_and_const;
          Alcotest.test_case "triangle" `Quick test_construct_all_triangle;
          Alcotest.test_case "as attribute" `Quick test_construct_as_attr;
          Alcotest.test_case "group" `Quick test_construct_group;
          Alcotest.test_case "unnest" `Quick test_construct_unnest;
          Alcotest.test_case "multi-rule program" `Quick test_multi_rule_program;
          Alcotest.test_case "construct edge cases" `Quick test_construct_edge_cases;
          Alcotest.test_case "multiple roots" `Quick test_multiple_roots_order;
          Alcotest.test_case "predicate units" `Quick test_predicate_units;
          Alcotest.test_case "string predicates" `Quick test_string_predicates;
          Alcotest.test_case "result document order" `Quick test_result_document_order;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "aggregate empty" `Quick test_aggregate_empty;
          Alcotest.test_case "aggregate grouped" `Quick test_aggregate_grouped;
          Alcotest.test_case "aggregate count dispatch" `Quick
            test_aggregate_count_dispatch;
        ] );
      ( "checks",
        [
          Alcotest.test_case "check_rule" `Quick test_check_rule_errors;
          Alcotest.test_case "engine rejects" `Quick test_engine_rejects_ill_formed;
        ] );
      ( "schema",
        [
          Alcotest.test_case "unordered accepts" `Quick test_schema_unordered_accepts;
          Alcotest.test_case "violations" `Quick test_schema_violations;
          Alcotest.test_case "ordered declaration" `Quick test_schema_ordered_decl;
          Alcotest.test_case "of_dtd" `Quick test_of_dtd;
          Alcotest.test_case "to_dtd" `Quick test_to_dtd;
          Alcotest.test_case "dtd agreement" `Quick test_dtd_roundtrip_agreement;
          Alcotest.test_case "flatten errors" `Quick test_flatten_seq_errors;
        ] );
    ]
