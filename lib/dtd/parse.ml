exception Error of string * int  (** message, byte offset *)

type state = { src : string; mutable pos : int }

let error st msg = raise (Error (msg, st.pos))
let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]
let advance st = if not (eof st) then st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else error st (Printf.sprintf "expected %S" s)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let rec skip_space st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done;
  if looking_at st "<!--" then begin
    st.pos <- st.pos + 4;
    let rec go () =
      if eof st then error st "unterminated comment"
      else if looking_at st "-->" then st.pos <- st.pos + 3
      else begin
        advance st;
        go ()
      end
    in
    go ();
    skip_space st
  end

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st =
  if not (is_name_start (peek st)) then error st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let parse_quoted st =
  let q = peek st in
  if q <> '"' && q <> '\'' then error st "expected quoted literal";
  advance st;
  let start = st.pos in
  while (not (eof st)) && peek st <> q do
    advance st
  done;
  if eof st then error st "unterminated literal";
  let s = String.sub st.src start (st.pos - start) in
  advance st;
  s

(* --- content models ------------------------------------------------ *)

let parse_postfix st re =
  match peek st with
  | '*' -> advance st; Gql_regex.Syntax.star re
  | '+' -> advance st; Gql_regex.Syntax.plus re
  | '?' -> advance st; Gql_regex.Syntax.opt re
  | _ -> re

(* A parenthesised group: either a sequence (comma-separated) or a choice
   (pipe-separated); mixing separators is a syntax error, as in XML 1.0. *)
let rec parse_group st =
  expect st "(";
  skip_space st;
  let first = parse_cp st in
  skip_space st;
  match peek st with
  | ')' ->
    advance st;
    first
  | ',' ->
    let items = ref [ first ] in
    while peek st = ',' do
      advance st;
      skip_space st;
      items := parse_cp st :: !items;
      skip_space st
    done;
    expect st ")";
    Gql_regex.Syntax.seq_list (List.rev !items)
  | '|' ->
    let items = ref [ first ] in
    while peek st = '|' do
      advance st;
      skip_space st;
      items := parse_cp st :: !items;
      skip_space st
    done;
    expect st ")";
    Gql_regex.Syntax.alt_list (List.rev !items)
  | _ -> error st "expected ',', '|' or ')' in content model"

and parse_cp st =
  let atom =
    if peek st = '(' then parse_group st
    else Gql_regex.Syntax.sym (parse_name st)
  in
  parse_postfix st atom

let parse_content_model st : Ast.content_model =
  skip_space st;
  if looking_at st "EMPTY" then begin
    st.pos <- st.pos + 5;
    Ast.Empty_content
  end
  else if looking_at st "ANY" then begin
    st.pos <- st.pos + 3;
    Ast.Any_content
  end
  else if peek st = '(' then begin
    (* Distinguish (#PCDATA...) from pure element content. *)
    let save = st.pos in
    advance st;
    skip_space st;
    if looking_at st "#PCDATA" then begin
      st.pos <- st.pos + 7;
      skip_space st;
      let names = ref [] in
      while peek st = '|' do
        advance st;
        skip_space st;
        names := parse_name st :: !names;
        skip_space st
      done;
      expect st ")";
      if !names = [] then Ast.Pcdata
      else begin
        (* Mixed content requires the trailing star. *)
        if peek st = '*' then advance st
        else error st "mixed content model must end with '*'";
        Ast.Mixed (List.rev !names)
      end
    end
    else begin
      st.pos <- save;
      let re = parse_group st in
      Ast.Children (parse_postfix st re)
    end
  end
  else error st "expected content model"

(* --- attribute declarations ---------------------------------------- *)

let parse_attr_type st : Ast.attr_type =
  skip_space st;
  if looking_at st "CDATA" then (st.pos <- st.pos + 5; Ast.Cdata)
  else if looking_at st "IDREFS" then (st.pos <- st.pos + 6; Ast.Idrefs)
  else if looking_at st "IDREF" then (st.pos <- st.pos + 5; Ast.Idref)
  else if looking_at st "ID" then (st.pos <- st.pos + 2; Ast.Id)
  else if looking_at st "NMTOKENS" then (st.pos <- st.pos + 8; Ast.Nmtokens)
  else if looking_at st "NMTOKEN" then (st.pos <- st.pos + 7; Ast.Nmtoken)
  else if peek st = '(' then begin
    advance st;
    skip_space st;
    let values = ref [ parse_name st ] in
    skip_space st;
    while peek st = '|' do
      advance st;
      skip_space st;
      values := parse_name st :: !values;
      skip_space st
    done;
    expect st ")";
    Ast.Enumeration (List.rev !values)
  end
  else error st "expected attribute type"

let parse_attr_default st : Ast.attr_default =
  skip_space st;
  if looking_at st "#REQUIRED" then (st.pos <- st.pos + 9; Ast.Required)
  else if looking_at st "#IMPLIED" then (st.pos <- st.pos + 8; Ast.Implied)
  else if looking_at st "#FIXED" then begin
    st.pos <- st.pos + 6;
    skip_space st;
    Ast.Fixed (parse_quoted st)
  end
  else Ast.Default (parse_quoted st)

(* --- declarations --------------------------------------------------- *)

let parse_subset ?root_hint (src : string) : Ast.t =
  let st = { src; pos = 0 } in
  let elements = ref [] in
  let attlists : (string * Ast.attr_def list) list ref = ref [] in
  let rec go () =
    skip_space st;
    if eof st then ()
    else if looking_at st "<!ELEMENT" then begin
      st.pos <- st.pos + 9;
      skip_space st;
      let name = parse_name st in
      let cm = parse_content_model st in
      skip_space st;
      expect st ">";
      if List.mem_assoc name !elements then
        error st (Printf.sprintf "duplicate <!ELEMENT %s>" name);
      elements := (name, cm) :: !elements;
      go ()
    end
    else if looking_at st "<!ATTLIST" then begin
      st.pos <- st.pos + 9;
      skip_space st;
      let ename = parse_name st in
      let defs = ref [] in
      skip_space st;
      while peek st <> '>' do
        let attr_name = parse_name st in
        let attr_type = parse_attr_type st in
        let default = parse_attr_default st in
        defs := { Ast.attr_name; attr_type; default } :: !defs;
        skip_space st
      done;
      expect st ">";
      let prev = try List.assoc ename !attlists with Not_found -> [] in
      attlists :=
        (ename, prev @ List.rev !defs) :: List.remove_assoc ename !attlists;
      go ()
    end
    else if looking_at st "<!ENTITY" || looking_at st "<!NOTATION" then begin
      (* Skipped: entities/notations are out of scope for the query system;
         skip to the closing '>' respecting quotes. *)
      while peek st <> '>' && not (eof st) do
        if peek st = '"' || peek st = '\'' then ignore (parse_quoted st)
        else advance st
      done;
      expect st ">";
      go ()
    end
    else if looking_at st "<?" then begin
      while (not (eof st)) && not (looking_at st "?>") do
        advance st
      done;
      expect st "?>";
      go ()
    end
    else error st "expected a DTD declaration"
  in
  go ();
  { Ast.root_hint; elements = List.rev !elements; attlists = List.rev !attlists }

let of_doc (d : Gql_xml.Tree.doc) : Ast.t option =
  match d.doctype with
  | Some { dt_name; internal_subset = Some subset; _ } ->
    Some (parse_subset ~root_hint:dt_name subset)
  | Some { dt_name; internal_subset = None; _ } ->
    Some { Ast.empty with root_hint = Some dt_name }
  | None -> None
