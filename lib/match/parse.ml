exception Error of string
(** Raised with a human-readable message, ["... at line L, column C"]. *)

type state = { line : string; lineno : int; mutable pos : int }

let err st fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Error
           (Printf.sprintf "%s at line %d, column %d" msg st.lineno
              (st.pos + 1))))
    fmt

let peek st = if st.pos < String.length st.line then Some st.line.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\r') ->
      advance st;
      go ()
    | _ -> ()
  in
  go ()

let eat st c =
  skip_ws st;
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> err st "expected '%c' but found '%c'" c c'
  | None -> err st "expected '%c' but the line ended" c

(* Variable names are identifiers; labels additionally allow '-' so XML
   element names like [last-name] work unquoted. *)
let is_word_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_word_char c = is_word_start c || (c >= '0' && c <= '9')
let is_label_char c = is_word_char c || c = '-'

let take st what good =
  skip_ws st;
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some c when good c ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  if st.pos = start then err st "expected %s" what
  else String.sub st.line start (st.pos - start)

let word st = take st "a name" is_word_char
let label st = take st "a label" is_label_char

(* A keyword at the cursor, lowercased; the cursor is left after it. *)
let keyword st = String.lowercase_ascii (word st)

let expect_keyword st kw =
  skip_ws st;
  let col = st.pos in
  let w = keyword st in
  if w <> kw then (
    st.pos <- col;
    err st "expected '%s' but found '%s'" (String.uppercase_ascii kw) w)

let at_end st =
  skip_ws st;
  peek st = None

let end_line st = if not (at_end st) then err st "trailing input"

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)

let parse_pnode st : Ast.pnode =
  eat st '(';
  skip_ws st;
  let v =
    match peek st with Some c when is_word_start c -> Some (word st) | _ -> None
  in
  skip_ws st;
  let l =
    match peek st with
    | Some ':' ->
      advance st;
      Some (label st)
    | _ -> None
  in
  eat st ')';
  { Ast.n_var = v; n_label = l }

(* The bracket body of an edge pattern: [e], [:spec], [e:spec] or
   nothing.  A spec made only of label characters is a single-arc name
   test; anything else must parse as a Label_re path expression, whose
   trimmed source text we keep verbatim for printing. *)
let parse_bracket st : string option * Ast.espec =
  eat st '[';
  skip_ws st;
  let v =
    match peek st with Some c when is_word_start c -> Some (word st) | _ -> None
  in
  skip_ws st;
  let spec =
    match peek st with
    | Some ':' ->
      advance st;
      skip_ws st;
      let start = st.pos in
      let rec go () =
        match peek st with
        | Some ']' | None -> ()
        | Some _ ->
          advance st;
          go ()
      in
      go ();
      let raw = String.trim (String.sub st.line start (st.pos - start)) in
      if raw = "" then (
        st.pos <- start;
        err st "expected an edge label or path expression")
      else if String.for_all is_label_char raw then Ast.Label raw
      else (
        match Gql_lang.Label_re.parse raw with
        | _ -> Ast.Regex raw
        | exception Gql_lang.Label_re.Error msg ->
          st.pos <- start;
          err st "bad path expression (%s)" msg)
    | _ -> Ast.Any
  in
  eat st ']';
  (v, spec)

let parse_pedge st : Ast.pedge option =
  skip_ws st;
  match peek st with
  | Some '-' ->
    advance st;
    let v, spec = parse_bracket st in
    eat st '-';
    eat st '>';
    Some { Ast.e_var = v; e_spec = spec; e_dir = Ast.Out }
  | Some '<' ->
    advance st;
    eat st '-';
    let v, spec = parse_bracket st in
    eat st '-';
    Some { Ast.e_var = v; e_spec = spec; e_dir = Ast.In }
  | _ -> None

let parse_chain st : Ast.chain =
  let head = parse_pnode st in
  let rec hops acc =
    match parse_pedge st with
    | None -> List.rev acc
    | Some e ->
      let n = parse_pnode st in
      hops ((e, n) :: acc)
  in
  { Ast.head; hops = hops [] }

(* ------------------------------------------------------------------ *)
(* WHERE                                                               *)

let parse_term st : Ast.term =
  skip_ws st;
  match peek st with
  | Some '"' ->
    advance st;
    let start = st.pos in
    let rec go () =
      match peek st with
      | Some '"' -> ()
      | Some _ ->
        advance st;
        go ()
      | None -> err st "unterminated string literal"
    in
    go ();
    let s = String.sub st.line start (st.pos - start) in
    advance st;
    Ast.Lit (Gql_data.Value.String s)
  | Some c when c = '-' || (c >= '0' && c <= '9') ->
    let start = st.pos in
    if c = '-' then advance st;
    let rec go () =
      match peek st with
      | Some ('0' .. '9' | '.') ->
        advance st;
        go ()
      | _ -> ()
    in
    go ();
    let raw = String.sub st.line start (st.pos - start) in
    if String.contains raw '.' then (
      match float_of_string_opt raw with
      | Some f -> Ast.Lit (Gql_data.Value.Float f)
      | None ->
        st.pos <- start;
        err st "bad number %S" raw)
    else (
      match int_of_string_opt raw with
      | Some i -> Ast.Lit (Gql_data.Value.Int i)
      | None ->
        st.pos <- start;
        err st "bad number %S" raw)
  | Some c when is_word_start c ->
    let v = word st in
    (match peek st with
    | Some '.' ->
      advance st;
      let field = word st in
      if field <> "value" then err st "expected '.value' after variable '%s'" v
      else Ast.Var v
    | _ -> err st "expected '.value' after variable '%s'" v)
  | Some c -> err st "expected a value or variable but found '%c'" c
  | None -> err st "expected a value or variable but the line ended"

let parse_cmp st : Ast.cmp =
  skip_ws st;
  match peek st with
  | Some '=' ->
    advance st;
    Ast.Eq
  | Some '<' ->
    advance st;
    (match peek st with
    | Some '>' ->
      advance st;
      Ast.Ne
    | Some '=' ->
      advance st;
      Ast.Le
    | _ -> Ast.Lt)
  | Some '>' ->
    advance st;
    (match peek st with
    | Some '=' ->
      advance st;
      Ast.Ge
    | _ -> Ast.Gt)
  | Some c -> err st "expected a comparison operator but found '%c'" c
  | None -> err st "expected a comparison operator but the line ended"

let parse_cond st : Ast.cond =
  let lhs = parse_term st in
  let op = parse_cmp st in
  let rhs = parse_term st in
  { Ast.lhs; op; rhs }

let parse_where st : Ast.cond list =
  let rec go acc =
    let c = parse_cond st in
    if at_end st then List.rev (c :: acc)
    else (
      expect_keyword st "and";
      go (c :: acc))
  in
  go []

(* ------------------------------------------------------------------ *)
(* RETURN                                                              *)

let parse_ret_item st : Ast.ret =
  let v = word st in
  match peek st with
  | Some '.' ->
    advance st;
    let field = word st in
    if field <> "value" then err st "expected '.value' after variable '%s'" v
    else Ast.Value v
  | _ -> Ast.Node v

let parse_returns st : Ast.ret list =
  let rec go acc =
    let r = parse_ret_item st in
    skip_ws st;
    match peek st with
    | Some ',' ->
      advance st;
      go (r :: acc)
    | _ -> List.rev (r :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let parse_result (src : string) : (Ast.query, string) result =
  try
    let clauses = ref [] in
    let returns = ref None in
    let lines = String.split_on_char '\n' src in
    List.iteri
      (fun i raw ->
        let trimmed = String.trim raw in
        if trimmed = "" || trimmed.[0] = '#' then ()
        else
          let st = { line = raw; lineno = i + 1; pos = 0 } in
          if !returns <> None then err st "RETURN must be the last clause"
          else (
            skip_ws st;
            let col = st.pos in
            match keyword st with
            | "match" ->
              clauses := Ast.Match (parse_chain st) :: !clauses;
              end_line st
            | "where" ->
              clauses := Ast.Where (parse_where st) :: !clauses
            | "not" ->
              expect_keyword st "exists";
              eat st '{';
              let ch = parse_chain st in
              eat st '}';
              clauses := Ast.Not_exists ch :: !clauses;
              end_line st
            | "return" ->
              returns := Some (parse_returns st);
              end_line st
            | w ->
              st.pos <- col;
              err st "unknown clause '%s'" w))
      lines;
    match !returns with
    | None -> Error "missing RETURN clause"
    | Some returns -> (
      match List.rev !clauses with
      | Ast.Match _ :: _ as clauses -> Ok { Ast.clauses; returns }
      | _ -> Error "a query must begin with a MATCH clause")
  with Error msg -> Error msg

let parse (src : string) : Ast.query =
  match parse_result src with Ok q -> q | Error msg -> raise (Error msg)
