exception Error of string * int

type state = { src : string; mutable pos : int }

let error st msg = raise (Error (msg, st.pos))
let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]

let peek_at st k =
  if st.pos + k >= String.length st.src then '\000' else st.src.[st.pos + k]

let advance st = if not (eof st) then st.pos <- st.pos + 1

let skip_space st =
  while (not (eof st)) && (peek st = ' ' || peek st = '\t' || peek st = '\n') do
    advance st
  done

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let eat st s =
  if looking_at st s then begin
    st.pos <- st.pos + String.length s;
    true
  end
  else false

let expect st s = if not (eat st s) then error st (Printf.sprintf "expected %S" s)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.' || c = ':'

let parse_name st =
  (* ':' is a legal name character (lexical namespaces) but "::" is the
     axis separator — stop before a double colon. *)
  if not (is_name_start (peek st)) then error st "expected a name";
  let start = st.pos in
  let continue () =
    is_name_char (peek st) && not (peek st = ':' && peek_at st 1 = ':')
  in
  while (not (eof st)) && continue () do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* A name used as an operator keyword (and/or/div/mod) must not be
   followed by name characters. *)
let at_keyword st kw =
  looking_at st kw
  && not (is_name_char (peek_at st (String.length kw)))

let parse_number st =
  let start = st.pos in
  while (not (eof st)) && peek st >= '0' && peek st <= '9' do
    advance st
  done;
  if peek st = '.' && peek_at st 1 >= '0' && peek_at st 1 <= '9' then begin
    advance st;
    while (not (eof st)) && peek st >= '0' && peek st <= '9' do
      advance st
    done
  end;
  float_of_string (String.sub st.src start (st.pos - start))

let parse_literal st =
  let q = peek st in
  advance st;
  let start = st.pos in
  while (not (eof st)) && peek st <> q do
    advance st
  done;
  if eof st then error st "unterminated string literal";
  let s = String.sub st.src start (st.pos - start) in
  advance st;
  s

let rec parse_expr st : Ast.expr = parse_or st

and parse_or st =
  let left = parse_and st in
  skip_space st;
  if at_keyword st "or" then begin
    st.pos <- st.pos + 2;
    Ast.Binop (Ast.Or, left, parse_or st)
  end
  else left

and parse_and st =
  let left = parse_equality st in
  skip_space st;
  if at_keyword st "and" then begin
    st.pos <- st.pos + 3;
    Ast.Binop (Ast.And, left, parse_and st)
  end
  else left

and parse_equality st =
  let left = parse_relational st in
  skip_space st;
  if eat st "!=" then Ast.Binop (Ast.Neq, left, parse_equality st)
  else if eat st "=" then Ast.Binop (Ast.Eq, left, parse_equality st)
  else left

and parse_relational st =
  let left = parse_additive st in
  skip_space st;
  if eat st "<=" then Ast.Binop (Ast.Le, left, parse_relational st)
  else if eat st ">=" then Ast.Binop (Ast.Ge, left, parse_relational st)
  else if eat st "<" then Ast.Binop (Ast.Lt, left, parse_relational st)
  else if eat st ">" then Ast.Binop (Ast.Gt, left, parse_relational st)
  else left

and parse_additive st =
  let left = parse_multiplicative st in
  let rec go left =
    skip_space st;
    if eat st "+" then go (Ast.Binop (Ast.Add, left, parse_multiplicative st))
    else if
      (* '-' must not swallow the hyphen inside names; in XPath a binary
         minus is always surrounded by non-name context here because the
         left operand has already been consumed. *)
      eat st "-"
    then go (Ast.Binop (Ast.Sub, left, parse_multiplicative st))
    else left
  in
  go left

and parse_multiplicative st =
  let left = parse_unary st in
  let rec go left =
    skip_space st;
    if eat st "*" then go (Ast.Binop (Ast.Mul, left, parse_unary st))
    else if at_keyword st "div" then begin
      st.pos <- st.pos + 3;
      go (Ast.Binop (Ast.Div, left, parse_unary st))
    end
    else if at_keyword st "mod" then begin
      st.pos <- st.pos + 3;
      go (Ast.Binop (Ast.Mod, left, parse_unary st))
    end
    else left
  in
  go left

and parse_unary st =
  skip_space st;
  if eat st "-" then Ast.Neg (parse_unary st) else parse_union st

and parse_union st =
  let left = parse_path_expr st in
  skip_space st;
  if peek st = '|' then begin
    advance st;
    Ast.Binop (Ast.Union, left, parse_union st)
  end
  else left

and parse_path_expr st =
  skip_space st;
  match peek st with
  | '"' | '\'' -> Ast.Literal (parse_literal st)
  | c when c >= '0' && c <= '9' -> Ast.Number (parse_number st)
  | '(' ->
    advance st;
    let e = parse_expr st in
    skip_space st;
    expect st ")";
    (* A parenthesised expression may continue as a path: not supported in
       this subset (rare in practice); return as-is. *)
    e
  | _ ->
    (* Function call or location path.  A name followed by '(' that is
       not a node-test keyword is a function call. *)
    let save = st.pos in
    if is_name_start (peek st) then begin
      let name = parse_name st in
      skip_space st;
      if
        peek st = '('
        && name <> "text" && name <> "node" && name <> "comment"
      then begin
        advance st;
        let args = ref [] in
        skip_space st;
        if peek st <> ')' then begin
          args := [ parse_expr st ];
          skip_space st;
          while peek st = ',' do
            advance st;
            args := parse_expr st :: !args;
            skip_space st
          done
        end;
        expect st ")";
        Ast.Call (name, List.rev !args)
      end
      else begin
        st.pos <- save;
        Ast.Path (parse_path st)
      end
    end
    else begin
      let p = parse_path st in
      if (not p.Ast.absolute) && p.Ast.steps = [] then
        error st "expected an expression";
      Ast.Path p
    end

and parse_path st : Ast.path =
  skip_space st;
  let absolute = peek st = '/' in
  let steps = ref [] in
  if absolute then begin
    if looking_at st "//" then begin
      st.pos <- st.pos + 2;
      steps :=
        [ { Ast.axis = Ast.Descendant_or_self; test = Ast.Node_test; predicates = [] } ]
    end
    else advance st
  end;
  let rec go first =
    skip_space st;
    if eof st then ()
    else if
      first
      && not
           (is_name_start (peek st) || peek st = '@' || peek st = '.'
          || peek st = '*')
    then ()
    else begin
      (match parse_step st with
      | Some s -> steps := s :: !steps
      | None -> ());
      skip_space st;
      if looking_at st "//" then begin
        st.pos <- st.pos + 2;
        steps :=
          { Ast.axis = Ast.Descendant_or_self; test = Ast.Node_test; predicates = [] }
          :: !steps;
        go false
      end
      else if peek st = '/' then begin
        advance st;
        go false
      end
    end
  in
  (if absolute then begin
     skip_space st;
     if
       is_name_start (peek st) || peek st = '@' || peek st = '.' || peek st = '*'
     then go false
   end
   else go true);
  { Ast.absolute; steps = List.rev !steps }

and parse_step st : Ast.step option =
  skip_space st;
  if eat st ".." then
    Some { Ast.axis = Ast.Parent; test = Ast.Node_test; predicates = parse_predicates st }
  else if peek st = '.' && peek_at st 1 <> '.' then begin
    advance st;
    Some { Ast.axis = Ast.Self; test = Ast.Node_test; predicates = parse_predicates st }
  end
  else begin
    let axis =
      if eat st "@" then Ast.Attribute
      else begin
        (* Long axis syntax axis::test *)
        let save = st.pos in
        if is_name_start (peek st) then begin
          let name = parse_name st in
          if eat st "::" then
            match name with
            | "child" -> Ast.Child
            | "descendant" -> Ast.Descendant
            | "descendant-or-self" -> Ast.Descendant_or_self
            | "self" -> Ast.Self
            | "parent" -> Ast.Parent
            | "ancestor" -> Ast.Ancestor
            | "ancestor-or-self" -> Ast.Ancestor_or_self
            | "attribute" -> Ast.Attribute
            | "following-sibling" -> Ast.Following_sibling
            | "preceding-sibling" -> Ast.Preceding_sibling
            | "following" -> Ast.Following
            | "preceding" -> Ast.Preceding
            | a -> error st (Printf.sprintf "unknown axis %s" a)
          else begin
            st.pos <- save;
            Ast.Child
          end
        end
        else Ast.Child
      end
    in
    let test =
      if eat st "*" then Ast.Wildcard
      else if looking_at st "text()" then begin
        st.pos <- st.pos + 6;
        Ast.Text_test
      end
      else if looking_at st "node()" then begin
        st.pos <- st.pos + 6;
        Ast.Node_test
      end
      else if looking_at st "comment()" then begin
        st.pos <- st.pos + 9;
        Ast.Comment_test
      end
      else if is_name_start (peek st) then Ast.Name (parse_name st)
      else error st "expected a node test"
    in
    Some { Ast.axis; test; predicates = parse_predicates st }
  end

and parse_predicates st =
  let rec go acc =
    skip_space st;
    if peek st = '[' then begin
      advance st;
      let e = parse_expr st in
      skip_space st;
      expect st "]";
      go (e :: acc)
    end
    else List.rev acc
  in
  go []

let expr (src : string) : Ast.expr =
  let st = { src; pos = 0 } in
  let e = parse_expr st in
  skip_space st;
  if not (eof st) then error st "trailing input";
  e
