exception Error of string

let parse (src : string) : string Gql_regex.Syntax.t =
  let n = String.length src in
  let pos = ref 0 in
  (* Column-stamped errors (1-based): fuzz minimization and editors
     need to tell a *parse* failure at a position apart from an
     evaluation disagreement. *)
  let error fmt =
    Printf.ksprintf
      (fun s -> raise (Error (Printf.sprintf "%s at column %d" s (!pos + 1))))
      fmt
  in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let skip () =
    while !pos < n && (src.[!pos] = ' ' || src.[!pos] = '\t') do
      advance ()
    done
  in
  let is_name c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '-'
  in
  let name () =
    let start = !pos in
    while !pos < n && is_name src.[!pos] do
      advance ()
    done;
    if !pos = start then error "expected an edge label";
    String.sub src start (!pos - start)
  in
  let rec alt () =
    let left = seq () in
    skip ();
    match peek () with
    | Some '|' ->
      advance ();
      Gql_regex.Syntax.alt left (alt ())
    | _ -> left
  and seq () =
    let rec go acc =
      skip ();
      match peek () with
      | None | Some ')' | Some '|' -> acc
      | _ -> go (Gql_regex.Syntax.seq acc (postfix ()))
    in
    go Gql_regex.Syntax.eps
  and postfix () =
    let a = atom () in
    let rec p r =
      skip ();
      match peek () with
      | Some '*' -> advance (); p (Gql_regex.Syntax.star r)
      | Some '+' -> advance (); p (Gql_regex.Syntax.plus r)
      | Some '?' -> advance (); p (Gql_regex.Syntax.opt r)
      | _ -> r
    in
    p a
  and atom () =
    skip ();
    match peek () with
    | Some '(' ->
      advance ();
      let r = alt () in
      skip ();
      (match peek () with
      | Some ')' -> advance ()
      | _ -> error "expected ')'");
      r
    | Some '.' ->
      advance ();
      (* any label: encoded as the reserved wildcard token *)
      Gql_regex.Syntax.sym "*"
    | Some c when is_name c -> Gql_regex.Syntax.sym (name ())
    | _ -> error "expected a label, '(' or '.'"
  in
  skip ();
  if !pos >= n then error "empty path expression";
  let r = alt () in
  skip ();
  if !pos <> n then error "trailing input in path expression";
  r

let symbol_matches sym label = sym = "*" || sym = label

let to_string (re : string Gql_regex.Syntax.t) =
  Gql_regex.Syntax.to_string (fun s -> if s = "*" then "." else s) re
