open Lex

type pstate = { mutable toks : token list; line : int }

let expect_ident (st : pstate) what =
  match st.toks with
  | Ident s :: r ->
    st.toks <- r;
    s
  | _ -> err st.line "expected %s" what

let eat_ident (st : pstate) kw =
  match st.toks with
  | Ident s :: r when s = kw ->
    st.toks <- r;
    true
  | _ -> false

let parse_conditions (st : pstate) : Gql_wglog.Ast.condition list =
  if not (eat_ident st "where") then begin
    if st.toks <> [] then err st.line "unexpected tokens";
    []
  end
  else begin
    let conds = ref [] in
    let value_of = function
      | Str s -> Gql_data.Value.string s
      | Num f ->
        if Float.is_integer f then Gql_data.Value.int (int_of_float f)
        else Gql_data.Value.float f
      | t -> err st.line "expected a literal, got %s" (pp_token t)
    in
    let rec go () =
      (match st.toks with
      | Regex re :: r ->
        st.toks <- r;
        conds := Gql_wglog.Ast.Re (Lex.regex ~line:st.line re) :: !conds
      | Punct '=' :: v :: r ->
        st.toks <- r;
        conds := Gql_wglog.Ast.Cmp (Gql_wglog.Ast.Eq, value_of v) :: !conds
      | Punct '!' :: Punct '=' :: v :: r ->
        st.toks <- r;
        conds := Gql_wglog.Ast.Cmp (Gql_wglog.Ast.Neq, value_of v) :: !conds
      | Punct '<' :: Punct '=' :: v :: r ->
        st.toks <- r;
        conds := Gql_wglog.Ast.Cmp (Gql_wglog.Ast.Le, value_of v) :: !conds
      | Punct '>' :: Punct '=' :: v :: r ->
        st.toks <- r;
        conds := Gql_wglog.Ast.Cmp (Gql_wglog.Ast.Ge, value_of v) :: !conds
      | Punct '<' :: v :: r ->
        st.toks <- r;
        conds := Gql_wglog.Ast.Cmp (Gql_wglog.Ast.Lt, value_of v) :: !conds
      | Punct '>' :: v :: r ->
        st.toks <- r;
        conds := Gql_wglog.Ast.Cmp (Gql_wglog.Ast.Gt, value_of v) :: !conds
      | t :: _ -> err st.line "expected a condition, got %s" (pp_token t)
      | [] -> err st.line "expected a condition");
      if eat_ident st "and" then go ()
      else if st.toks <> [] then err st.line "trailing tokens after condition"
    in
    go ();
    List.rev !conds
  end

exception Parse_error = Lex.Error

let parse_program ?schema (src : string) : Gql_wglog.Ast.program =
  let lines = tokenise src in
  let rules = ref [] in
  let b = ref (Gql_wglog.Ast.Build.create ()) in
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let in_rule = ref false in
  let id (st : pstate) name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None -> err st.line "unknown node %s" name
  in
  let declare (st : pstate) name i =
    if Hashtbl.mem ids name then err st.line "duplicate node %s" name;
    Hashtbl.replace ids name i
  in
  let finish_rule line =
    if not !in_rule then err line "end without rule";
    rules := Gql_wglog.Ast.Build.finish !b :: !rules;
    b := Gql_wglog.Ast.Build.create ();
    Hashtbl.reset ids;
    in_rule := false
  in
  List.iter
    (fun (line, toks) ->
      let st = { toks; line } in
      match st.toks with
      | Ident "wglog" :: _ -> ()
      | Ident "rule" :: _ ->
        if !in_rule then finish_rule line;
        in_rule := true
      | Ident "end" :: _ -> finish_rule line
      | Ident "node" :: r ->
        st.toks <- r;
        let name = expect_ident st "node name" in
        let ty = expect_ident st "entity type" in
        let kind = if ty = "any" then None else Some ty in
        declare st name
          (Gql_wglog.Ast.Build.node !b (Gql_wglog.Ast.Entity kind))
      | Ident "cnode" :: r ->
        st.toks <- r;
        let name = expect_ident st "node name" in
        let ty = expect_ident st "entity type" in
        let kind = if ty = "any" then None else Some ty in
        declare st name
          (Gql_wglog.Ast.Build.node !b ~role:Gql_wglog.Ast.Construct
             (Gql_wglog.Ast.Entity kind))
      | Ident "value" :: r ->
        st.toks <- r;
        let name = expect_ident st "node name" in
        let cond = parse_conditions st in
        declare st name
          (Gql_wglog.Ast.Build.node !b ~cond (Gql_wglog.Ast.Value None))
      | Ident "const" :: r -> (
        st.toks <- r;
        let name = expect_ident st "node name" in
        match st.toks with
        | Str s :: r' ->
          st.toks <- r';
          declare st name
            (Gql_wglog.Ast.Build.const !b (Gql_data.Value.string s))
        | Num f :: r' ->
          st.toks <- r';
          declare st name
            (Gql_wglog.Ast.Build.const !b
               (if Float.is_integer f then Gql_data.Value.int (int_of_float f)
                else Gql_data.Value.float f))
        | _ -> err line "const expects a literal")
      | Ident "cvalue" :: r -> (
        st.toks <- r;
        let name = expect_ident st "node name" in
        match st.toks with
        | Str s :: r' ->
          st.toks <- r';
          declare st name
            (Gql_wglog.Ast.Build.node !b ~role:Gql_wglog.Ast.Construct
               (Gql_wglog.Ast.Value (Some (Gql_data.Value.string s))))
        | _ -> err line "cvalue expects a string")
      | Ident "edge" :: r ->
        st.toks <- r;
        let src = id st (expect_ident st "source") in
        let label = expect_ident st "edge label" in
        let dst = id st (expect_ident st "destination") in
        Gql_wglog.Ast.Build.edge !b ~label src dst
      | Ident "negedge" :: r ->
        st.toks <- r;
        let src = id st (expect_ident st "source") in
        let label = expect_ident st "edge label" in
        let dst = id st (expect_ident st "destination") in
        Gql_wglog.Ast.Build.negated !b ~label src dst
      | Ident "pathedge" :: r -> (
        st.toks <- r;
        let src = id st (expect_ident st "source") in
        (* The path expression is everything up to the final identifier. *)
        match List.rev st.toks with
        | Ident dst_name :: rev_body ->
          let dst = id st dst_name in
          let body =
            String.concat " " (List.rev_map pp_token rev_body)
          in
          (match Label_re.parse body with
          | re -> Gql_wglog.Ast.Build.regex !b re src dst
          | exception Label_re.Error m -> err line "bad path expression: %s" m)
        | _ -> err line "pathedge expects: src <expr> dst")
      | Ident "cedge" :: r ->
        st.toks <- r;
        let src = id st (expect_ident st "source") in
        let label = expect_ident st "edge label" in
        let dst = id st (expect_ident st "destination") in
        Gql_wglog.Ast.Build.derive !b ~label src dst
      | Ident "collect" :: r ->
        st.toks <- r;
        let src = id st (expect_ident st "source") in
        let label = expect_ident st "edge label" in
        let dst = id st (expect_ident st "destination") in
        Gql_wglog.Ast.Build.collect_as !b ~label src dst
      | t :: _ -> err line "unexpected %s" (pp_token t)
      | [] -> ())
    lines;
  if !in_rule then rules := Gql_wglog.Ast.Build.finish !b :: !rules;
  { Gql_wglog.Ast.schema; rules = List.rev !rules }

let parse_program_result ?schema src =
  match parse_program ?schema src with
  | p -> Ok p
  | exception Parse_error (msg, line) ->
    Error (Printf.sprintf "line %d: %s" line msg)
