type position = { line : int; col : int }

exception Error of string * position

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
}

let current_position st = { line = st.line; col = st.pos - st.bol + 1 }
let error st msg = raise (Error (msg, current_position st))

let make src = { src; pos = 0; line = 1; bol = 0 }
let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]

let advance st =
  (if not (eof st) then
     let c = st.src.[st.pos] in
     st.pos <- st.pos + 1;
     if c = '\n' then begin
       st.line <- st.line + 1;
       st.bol <- st.pos
     end)

let advance_n st n =
  for _ = 1 to n do
    advance st
  done

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then advance_n st (String.length s)
  else error st (Printf.sprintf "expected %S" s)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_space st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let require_space st =
  if not (is_space (peek st)) then error st "expected whitespace";
  skip_space st

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_' || c = ':'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st =
  if not (is_name_start (peek st)) then error st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Entity and character references, shared by attribute values and
   character data. *)
let parse_reference st =
  expect st "&";
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' in
    if hex then advance st;
    let start = st.pos in
    let digit c =
      (c >= '0' && c <= '9')
      || (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')))
    in
    while digit (peek st) do
      advance st
    done;
    if st.pos = start then error st "empty character reference";
    let digits = String.sub st.src start (st.pos - start) in
    expect st ";";
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with Failure _ -> error st "invalid character reference"
    in
    if code < 0 || code > 0x10FFFF then error st "character reference out of range";
    (* Encode as UTF-8. *)
    let b = Buffer.create 4 in
    let add = Buffer.add_char b in
    if code < 0x80 then add (Char.chr code)
    else if code < 0x800 then begin
      add (Char.chr (0xC0 lor (code lsr 6)));
      add (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      add (Char.chr (0xE0 lor (code lsr 12)));
      add (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      add (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      add (Char.chr (0xF0 lor (code lsr 18)));
      add (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      add (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      add (Char.chr (0x80 lor (code land 0x3F)))
    end;
    Buffer.contents b
  end
  else begin
    let name = parse_name st in
    expect st ";";
    match name with
    | "amp" -> "&"
    | "lt" -> "<"
    | "gt" -> ">"
    | "quot" -> "\""
    | "apos" -> "'"
    | other -> error st (Printf.sprintf "unknown entity &%s;" other)
  end

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then error st "expected quoted attribute value";
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if eof st then error st "unterminated attribute value"
    else
      let c = peek st in
      if c = quote then advance st
      else if c = '&' then begin
        Buffer.add_string buf (parse_reference st);
        go ()
      end
      else if c = '<' then error st "'<' in attribute value"
      else begin
        advance st;
        Buffer.add_char buf c;
        go ()
      end
  in
  go ();
  Buffer.contents buf

let parse_comment st =
  expect st "<!--";
  let start = st.pos in
  let rec go () =
    if eof st then error st "unterminated comment"
    else if looking_at st "-->" then begin
      let s = String.sub st.src start (st.pos - start) in
      advance_n st 3;
      s
    end
    else begin
      advance st;
      go ()
    end
  in
  go ()

let parse_pi st =
  expect st "<?";
  let target = parse_name st in
  skip_space st;
  let start = st.pos in
  let rec go () =
    if eof st then error st "unterminated processing instruction"
    else if looking_at st "?>" then begin
      let s = String.sub st.src start (st.pos - start) in
      advance_n st 2;
      s
    end
    else begin
      advance st;
      go ()
    end
  in
  (target, go ())

let parse_cdata st =
  expect st "<![CDATA[";
  let start = st.pos in
  let rec go () =
    if eof st then error st "unterminated CDATA section"
    else if looking_at st "]]>" then begin
      let s = String.sub st.src start (st.pos - start) in
      advance_n st 3;
      s
    end
    else begin
      advance st;
      go ()
    end
  in
  go ()

let parse_attrs st =
  let rec go acc =
    skip_space st;
    if is_name_start (peek st) then begin
      let name = parse_name st in
      skip_space st;
      expect st "=";
      skip_space st;
      let value = parse_attr_value st in
      if List.mem_assoc name acc then
        error st (Printf.sprintf "duplicate attribute %S" name);
      go ((name, value) :: acc)
    end
    else List.rev acc
  in
  go []

let rec parse_element st : Tree.element =
  expect st "<";
  let name = parse_name st in
  let attrs = parse_attrs st in
  skip_space st;
  if looking_at st "/>" then begin
    advance_n st 2;
    { Tree.name; attrs; children = [] }
  end
  else begin
    expect st ">";
    let children = parse_content st name in
    { Tree.name; attrs; children }
  end

and parse_content st parent_name : Tree.node list =
  let buf = Buffer.create 32 in
  let acc = ref [] in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      acc := Tree.Text (Buffer.contents buf) :: !acc;
      Buffer.clear buf
    end
  in
  let rec go () =
    if eof st then error st (Printf.sprintf "unterminated element <%s>" parent_name)
    else if looking_at st "</" then begin
      flush_text ();
      advance_n st 2;
      let close = parse_name st in
      if close <> parent_name then
        error st
          (Printf.sprintf "mismatched close tag </%s> for <%s>" close parent_name);
      skip_space st;
      expect st ">";
      List.rev !acc
    end
    else if looking_at st "<!--" then begin
      flush_text ();
      acc := Tree.Comment (parse_comment st) :: !acc;
      go ()
    end
    else if looking_at st "<![CDATA[" then begin
      Buffer.add_string buf (parse_cdata st);
      go ()
    end
    else if looking_at st "<?" then begin
      flush_text ();
      let target, content = parse_pi st in
      acc := Tree.Pi (target, content) :: !acc;
      go ()
    end
    else if peek st = '<' then begin
      flush_text ();
      acc := Tree.Element (parse_element st) :: !acc;
      go ()
    end
    else if peek st = '&' then begin
      Buffer.add_string buf (parse_reference st);
      go ()
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      go ()
    end
  in
  go ()

let parse_doctype st : Tree.doctype =
  expect st "<!DOCTYPE";
  require_space st;
  let dt_name = parse_name st in
  skip_space st;
  let public_id, system_id =
    if looking_at st "SYSTEM" then begin
      advance_n st 6;
      skip_space st;
      (None, Some (parse_attr_value st))
    end
    else if looking_at st "PUBLIC" then begin
      advance_n st 6;
      skip_space st;
      let pub = parse_attr_value st in
      skip_space st;
      let sys =
        if peek st = '"' || peek st = '\'' then Some (parse_attr_value st)
        else None
      in
      (Some pub, sys)
    end
    else (None, None)
  in
  skip_space st;
  let internal_subset =
    if peek st = '[' then begin
      advance st;
      let start = st.pos in
      (* The internal subset may contain quoted strings and comments that
         themselves contain ']'; skip them correctly. *)
      let rec go depth =
        if eof st then error st "unterminated DOCTYPE internal subset"
        else
          match peek st with
          | ']' when depth = 0 -> ()
          | '"' | '\'' ->
            ignore (parse_attr_value st);
            go depth
          | _ when looking_at st "<!--" ->
            ignore (parse_comment st);
            go depth
          | '<' -> advance st; go (depth + 1)
          | '>' when depth > 0 -> advance st; go (depth - 1)
          | _ -> advance st; go depth
      in
      go 0;
      let s = String.sub st.src start (st.pos - start) in
      expect st "]";
      skip_space st;
      Some s
    end
    else None
  in
  expect st ">";
  { Tree.dt_name; system_id; public_id; internal_subset }

let parse_misc st =
  (* Comments, PIs and whitespace allowed in the prolog/epilog. *)
  let rec go () =
    skip_space st;
    if looking_at st "<!--" then begin
      ignore (parse_comment st);
      go ()
    end
    else if looking_at st "<?" && not (looking_at st "<?xml ") then begin
      ignore (parse_pi st);
      go ()
    end
  in
  go ()

let parse_document (src : string) : Tree.doc =
  let st = make src in
  (* Optional XML declaration. *)
  if looking_at st "<?xml" then begin
    let _ = parse_pi st in
    ()
  end;
  parse_misc st;
  let doctype =
    if looking_at st "<!DOCTYPE" then begin
      let dt = parse_doctype st in
      parse_misc st;
      Some dt
    end
    else None
  in
  if peek st <> '<' then error st "expected root element";
  let root = parse_element st in
  parse_misc st;
  if not (eof st) then error st "content after root element";
  { Tree.doctype; root }

let parse_document_result src =
  match parse_document src with
  | d -> Ok d
  | exception Error (msg, p) ->
    Error (Printf.sprintf "%d:%d: %s" p.line p.col msg)
