(** Token-level utilities shared by the two textual front-ends.

    The concrete syntax of both languages is deliberately line-based: a
    program is a sequence of declarations, one per line, mirroring how a
    visual editor would serialise a diagram (one line per node or edge).
    Comments run from [#] to end of line. *)

type token =
  | Ident of string
  | Str of string  (** "quoted" *)
  | Num of float
  | Regex of string  (** /slashed/ *)
  | Punct of char

exception Error of string * int  (** message, line number *)

let err line fmt = Printf.ksprintf (fun s -> raise (Error (s, line))) fmt

(** The pattern of a [/regex/] token, compiled once here so that a
    malformed one is a parse error on its line, not a failure at match
    time. *)
let regex ~line re =
  match Gql_regex.Chre.compile re with
  | _ -> re
  | exception Gql_regex.Chre.Parse_error (msg, pos) ->
    err line "bad /regex/ /%s/: %s at offset %d" re msg pos

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = ':' || c = '$' || c = '*'

let is_digit c = (c >= '0' && c <= '9') || c = '.'

(** Tokenise one line. *)
let tokens_of_line ~line (s : string) : token list =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '#' then i := n
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '"' then begin
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while !i < n && not !closed do
        if s.[!i] = '"' then closed := true
        else if s.[!i] = '\\' && !i + 1 < n then begin
          (match s.[!i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | c -> Buffer.add_char buf c);
          incr i
        end
        else Buffer.add_char buf s.[!i];
        incr i
      done;
      if not !closed then err line "unterminated string";
      toks := Str (Buffer.contents buf) :: !toks
    end
    else if c = '/' then begin
      (* regex literal /.../ ; a lone '/' is punctuation *)
      let j = ref (!i + 1) in
      let found = ref false in
      while !j < n && not !found do
        if s.[!j] = '/' && s.[!j - 1] <> '\\' then found := true else incr j
      done;
      if !found then begin
        toks := Regex (String.sub s (!i + 1) (!j - !i - 1)) :: !toks;
        i := !j + 1
      end
      else begin
        toks := Punct '/' :: !toks;
        incr i
      end
    end
    else if is_digit c && c <> '.' then begin
      let start = !i in
      while !i < n && is_digit s.[!i] do
        incr i
      done;
      let text = String.sub s start (!i - start) in
      match float_of_string_opt text with
      | Some f -> toks := Num f :: !toks
      | None -> err line "bad number %S" text
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      toks := Ident (String.sub s start (!i - start)) :: !toks
    end
    else begin
      toks := Punct c :: !toks;
      incr i
    end
  done;
  List.rev !toks

(** Split source into (line number, tokens) for non-empty lines. *)
let tokenise (src : string) : (int * token list) list =
  String.split_on_char '\n' src
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter_map (fun (ln, l) ->
         match tokens_of_line ~line:ln l with
         | [] -> None
         | toks -> Some (ln, toks))

let pp_token = function
  | Ident s -> s
  | Str s -> Printf.sprintf "%S" s
  | Num f ->
    if Float.is_integer f then string_of_int (int_of_float f)
    else string_of_float f
  | Regex r -> "/" ^ r ^ "/"
  | Punct c -> String.make 1 c
