open Lex

type pstate = { mutable toks : token list; line : int }

let peek st = match st.toks with [] -> None | t :: _ -> Some t
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let expect_ident st what =
  match st.toks with
  | Ident s :: r ->
    st.toks <- r;
    s
  | _ -> err st.line "expected %s" what

let eat_ident st kw =
  match st.toks with
  | Ident s :: r when s = kw ->
    st.toks <- r;
    true
  | _ -> false

let eat_punct st c =
  match st.toks with
  | Punct c' :: r when c' = c ->
    st.toks <- r;
    true
  | _ -> false

(* --- predicates ----------------------------------------------------- *)

let parse_operand_atom st ids : Gql_xmlgl.Ast.operand =
  match st.toks with
  | Ident "self" :: r ->
    st.toks <- r;
    Gql_xmlgl.Ast.Self
  | Ident name :: r when String.length name > 0 && name.[0] = '$' ->
    st.toks <- r;
    (match Hashtbl.find_opt ids name with
    | Some id -> Gql_xmlgl.Ast.Node_value id
    | None -> err st.line "unknown node %s in predicate" name)
  | Str s :: r ->
    st.toks <- r;
    Gql_xmlgl.Ast.Const (Gql_data.Value.string s)
  | Num f :: r ->
    st.toks <- r;
    if Float.is_integer f then Gql_xmlgl.Ast.Const (Gql_data.Value.int (int_of_float f))
    else Gql_xmlgl.Ast.Const (Gql_data.Value.float f)
  | _ -> err st.line "expected an operand"

let rec parse_operand st ids : Gql_xmlgl.Ast.operand =
  if eat_punct st '(' then begin
    let a = parse_operand st ids in
    let op =
      if eat_punct st '+' then Gql_xmlgl.Ast.Add
      else if eat_punct st '-' then Gql_xmlgl.Ast.Sub
      else if eat_punct st '*' then Gql_xmlgl.Ast.Mul
      else if eat_punct st '/' then Gql_xmlgl.Ast.Div
      else err st.line "expected an arithmetic operator"
    in
    let b = parse_operand st ids in
    if not (eat_punct st ')') then err st.line "expected ')'";
    Gql_xmlgl.Ast.Arith (op, a, b)
  end
  else parse_operand_atom st ids

let parse_cmp_op st : Gql_xmlgl.Ast.cmp_op =
  match st.toks with
  | Punct '=' :: r ->
    st.toks <- r;
    Gql_xmlgl.Ast.Eq
  | Punct '!' :: Punct '=' :: r ->
    st.toks <- r;
    Gql_xmlgl.Ast.Neq
  | Punct '<' :: Punct '=' :: r ->
    st.toks <- r;
    Gql_xmlgl.Ast.Le
  | Punct '>' :: Punct '=' :: r ->
    st.toks <- r;
    Gql_xmlgl.Ast.Ge
  | Punct '<' :: r ->
    st.toks <- r;
    Gql_xmlgl.Ast.Lt
  | Punct '>' :: r ->
    st.toks <- r;
    Gql_xmlgl.Ast.Gt
  | _ -> err st.line "expected a comparison operator"

let rec parse_pred st ids : Gql_xmlgl.Ast.predicate =
  let left = parse_pred_and st ids in
  if eat_ident st "or" then Gql_xmlgl.Ast.Or (left, parse_pred st ids) else left

and parse_pred_and st ids =
  let left = parse_pred_atom st ids in
  if eat_ident st "and" then Gql_xmlgl.Ast.And (left, parse_pred_and st ids)
  else left

and parse_pred_atom st ids =
  if eat_ident st "not" then Gql_xmlgl.Ast.Not (parse_pred_atom st ids)
  else if eat_punct st '(' then begin
    (* Lookahead ambiguity: '(' may open a grouped predicate or an
       arithmetic operand.  Try predicate first by scanning for a
       comparison before the matching ')': simplest robust rule is to
       re-parse as operand on failure. *)
    let saved = st.toks in
    let attempt =
      match parse_pred st ids with
      | p -> if eat_punct st ')' then Some p else None
      | exception Error _ -> None
    in
    match attempt with
    | Some p -> p
    | None ->
      st.toks <- saved;
      (* grouped arithmetic operand comparison: ( a + b ) op c *)
      let a =
        let x = parse_operand st ids in
        let op =
          if eat_punct st '+' then Some Gql_xmlgl.Ast.Add
          else if eat_punct st '-' then Some Gql_xmlgl.Ast.Sub
          else if eat_punct st '*' then Some Gql_xmlgl.Ast.Mul
          else if eat_punct st '/' then Some Gql_xmlgl.Ast.Div
          else None
        in
        match op with
        | Some op ->
          let y = parse_operand st ids in
          Gql_xmlgl.Ast.Arith (op, x, y)
        | None -> x
      in
      if not (eat_punct st ')') then err st.line "expected ')'";
      finish_cmp st ids a
  end
  else begin
    let a = parse_operand st ids in
    finish_cmp st ids a
  end

and finish_cmp st ids a =
  if eat_ident st "contains" then
    match st.toks with
    | Str s :: r ->
      st.toks <- r;
      Gql_xmlgl.Ast.Contains_str (a, s)
    | _ -> err st.line "contains expects a string"
  else if eat_ident st "starts" then
    match st.toks with
    | Str s :: r ->
      st.toks <- r;
      Gql_xmlgl.Ast.Starts_with (a, s)
    | _ -> err st.line "starts expects a string"
  else if eat_punct st '~' then
    match st.toks with
    | Regex re :: r ->
      st.toks <- r;
      Gql_xmlgl.Ast.Matches (a, Lex.regex ~line:st.line re)
    | _ -> err st.line "~ expects a /regex/"
  else begin
    let op = parse_cmp_op st in
    let b = parse_operand st ids in
    Gql_xmlgl.Ast.Compare (op, a, b)
  end

let parse_where st ids =
  if eat_ident st "where" then begin
    let p = parse_pred st ids in
    if st.toks <> [] then err st.line "trailing tokens after predicate";
    Some p
  end
  else if st.toks <> [] then err st.line "unexpected tokens"
  else None

(* --- rules ----------------------------------------------------------- *)

type section = S_none | S_query | S_construct

exception Parse_error = Lex.Error

let parse_program (src : string) : Gql_xmlgl.Ast.program =
  let lines = tokenise src in
  let rules = ref [] in
  let result_root = ref "result" in
  let b = ref (Gql_xmlgl.Ast.Build.create ()) in
  let qids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let cids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let section = ref S_none in
  let in_rule = ref false in
  let qid st name =
    match Hashtbl.find_opt qids name with
    | Some id -> id
    | None -> err st.line "unknown query node %s" name
  in
  let cid st name =
    match Hashtbl.find_opt cids name with
    | Some id -> id
    | None -> err st.line "unknown construction node %s" name
  in
  let cord = Hashtbl.create 8 in
  let next_ord parent =
    let v = match Hashtbl.find_opt cord parent with Some v -> v | None -> 0 in
    Hashtbl.replace cord parent (v + 1);
    v
  in
  let finish_rule line =
    if not !in_rule then err line "end without rule";
    rules := Gql_xmlgl.Ast.Build.finish !b :: !rules;
    b := Gql_xmlgl.Ast.Build.create ();
    Hashtbl.reset qids;
    Hashtbl.reset cids;
    Hashtbl.reset cord;
    section := S_none;
    in_rule := false
  in
  List.iter
    (fun (line, toks) ->
      let st = { toks; line } in
      match peek st with
      | Some (Ident "xmlgl") -> ()
      | Some (Ident "result") ->
        advance st;
        result_root := expect_ident st "result root name"
      | Some (Ident "rule") ->
        if !in_rule then finish_rule line;
        in_rule := true;
        section := S_none
      | Some (Ident "end") -> finish_rule line
      | Some (Ident "query") -> section := S_query
      | Some (Ident "construct") -> section := S_construct
      | Some (Ident "node") -> (
        advance st;
        let name = expect_ident st "node name" in
        match !section with
        | S_query -> (
          if Hashtbl.mem qids name then err line "duplicate node %s" name;
          match expect_ident st "node kind" with
          | "elem" -> (
            match st.toks with
            | Ident "*" :: r ->
              st.toks <- r;
              let pred = parse_where st qids in
              Hashtbl.replace qids name
                (Gql_xmlgl.Ast.Build.qnode !b ?pred
                   (Gql_xmlgl.Ast.Q_elem Gql_xmlgl.Ast.Any_name))
            | Regex re :: r ->
              st.toks <- r;
              let re = Lex.regex ~line re in
              let pred = parse_where st qids in
              Hashtbl.replace qids name
                (Gql_xmlgl.Ast.Build.qnode !b ?pred
                   (Gql_xmlgl.Ast.Q_elem (Gql_xmlgl.Ast.Name_re re)))
            | Ident ename :: r ->
              st.toks <- r;
              let pred = parse_where st qids in
              Hashtbl.replace qids name
                (Gql_xmlgl.Ast.Build.qnode !b ?pred
                   (Gql_xmlgl.Ast.Q_elem (Gql_xmlgl.Ast.Exact ename)))
            | _ -> err line "elem expects a name, * or /regex/")
          | "content" ->
            let pred = parse_where st qids in
            Hashtbl.replace qids name
              (Gql_xmlgl.Ast.Build.q_content !b ?pred ())
          | "attr" ->
            let pred = parse_where st qids in
            Hashtbl.replace qids name
              (Gql_xmlgl.Ast.Build.q_attr_node !b ?pred ())
          | k -> err line "unknown query node kind %s" k)
        | S_construct -> (
          if Hashtbl.mem cids name then err line "duplicate node %s" name;
          match expect_ident st "node kind" with
          | "new" ->
            let ename = expect_ident st "element name" in
            let per =
              if eat_ident st "per" then
                Some (qid st (expect_ident st "query node"))
              else None
            in
            Hashtbl.replace cids name
              (Gql_xmlgl.Ast.Build.c_elem !b ?per ename)
          | "copy" ->
            let q = qid st (expect_ident st "query node") in
            let deep = eat_ident st "deep" in
            Hashtbl.replace cids name (Gql_xmlgl.Ast.Build.c_copy !b ~deep q)
          | "value" ->
            let q = qid st (expect_ident st "query node") in
            Hashtbl.replace cids name (Gql_xmlgl.Ast.Build.c_value !b q)
          | "const" -> (
            match st.toks with
            | Str s :: r ->
              st.toks <- r;
              Hashtbl.replace cids name
                (Gql_xmlgl.Ast.Build.c_const !b (Gql_data.Value.string s))
            | Num f :: r ->
              st.toks <- r;
              Hashtbl.replace cids name
                (Gql_xmlgl.Ast.Build.c_const !b
                   (if Float.is_integer f then Gql_data.Value.int (int_of_float f)
                    else Gql_data.Value.float f))
            | _ -> err line "const expects a literal")
          | "all" ->
            let q = qid st (expect_ident st "query node") in
            Hashtbl.replace cids name (Gql_xmlgl.Ast.Build.c_all !b q)
          | "group" ->
            let q = qid st (expect_ident st "query node") in
            Hashtbl.replace cids name (Gql_xmlgl.Ast.Build.c_group !b ~by:q)
          | "unnest" ->
            let q = qid st (expect_ident st "query node") in
            Hashtbl.replace cids name (Gql_xmlgl.Ast.Build.c_unnest !b q)
          | ("count" | "sum" | "min" | "max" | "avg") as fn ->
            let q = qid st (expect_ident st "query node") in
            let fn =
              match fn with
              | "count" -> Gql_xmlgl.Ast.Count
              | "sum" -> Gql_xmlgl.Ast.Sum
              | "min" -> Gql_xmlgl.Ast.Min
              | "max" -> Gql_xmlgl.Ast.Max
              | _ -> Gql_xmlgl.Ast.Avg
            in
            Hashtbl.replace cids name (Gql_xmlgl.Ast.Build.c_aggregate !b fn q)
          | k -> err line "unknown construction node kind %s" k)
        | S_none -> err line "node outside query/construct section")
      | Some (Ident "edge") -> (
        advance st;
        match !section with
        | S_query ->
          let src = qid st (expect_ident st "source") in
          let dst = qid st (expect_ident st "destination") in
          let ordered = eat_ident st "ordered" in
          let position =
            if eat_ident st "pos" then
              match st.toks with
              | Num f :: r ->
                st.toks <- r;
                Some (int_of_float f)
              | _ -> err line "pos expects a number"
            else None
          in
          Gql_xmlgl.Ast.Build.qedge !b ~ordered ?position src dst
        | S_construct ->
          let parent = cid st (expect_ident st "parent") in
          let child = cid st (expect_ident st "child") in
          let as_attr =
            if eat_ident st "attr" then Some (expect_ident st "attribute name")
            else None
          in
          Gql_xmlgl.Ast.Build.cedge !b ?as_attr ~ord:(next_ord parent) parent child
        | S_none -> err line "edge outside query/construct section")
      | Some (Ident "deep") ->
        advance st;
        let src = qid st (expect_ident st "source") in
        let dst = qid st (expect_ident st "destination") in
        Gql_xmlgl.Ast.Build.qdeep !b src dst
      | Some (Ident "attredge") ->
        advance st;
        let src = qid st (expect_ident st "source") in
        let attr = expect_ident st "attribute name" in
        let dst = qid st (expect_ident st "destination") in
        Gql_xmlgl.Ast.Build.qattr !b src attr dst
      | Some (Ident "refedge") -> (
        advance st;
        let src = qid st (expect_ident st "source") in
        (* optional label before destination *)
        match st.toks with
        | Ident a :: Ident b' :: r when Hashtbl.mem qids b' ->
          st.toks <- r;
          ignore a;
          Gql_xmlgl.Ast.Build.qref !b ~name:a src (Hashtbl.find qids b')
        | Ident a :: r when Hashtbl.mem qids a ->
          st.toks <- r;
          Gql_xmlgl.Ast.Build.qref !b src (Hashtbl.find qids a)
        | _ -> err line "refedge expects [label] destination")
      | Some (Ident "absent") ->
        advance st;
        let src = qid st (expect_ident st "source") in
        let dst = qid st (expect_ident st "destination") in
        Gql_xmlgl.Ast.Build.qabsent !b src dst
      | Some (Ident "root") ->
        advance st;
        Gql_xmlgl.Ast.Build.root !b (cid st (expect_ident st "root node"))
      | Some t -> err line "unexpected %s" (pp_token t)
      | None -> ())
    lines;
  if !in_rule then
    rules := Gql_xmlgl.Ast.Build.finish !b :: !rules;
  { Gql_xmlgl.Ast.rules = List.rev !rules; result_root = !result_root }

let parse_program_result src =
  match parse_program src with
  | p -> Ok p
  | exception Parse_error (msg, line) ->
    Error (Printf.sprintf "line %d: %s" line msg)
