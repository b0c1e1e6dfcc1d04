type content_model =
  | Empty_content
  | Any_content
  | Pcdata
  | Mixed of string list
  | Children of string Gql_regex.Syntax.t

type attr_type =
  | Cdata
  | Id
  | Idref
  | Idrefs
  | Nmtoken
  | Nmtokens
  | Enumeration of string list

type attr_default =
  | Required
  | Implied
  | Fixed of string
  | Default of string

type attr_def = { attr_name : string; attr_type : attr_type; default : attr_default }

type t = {
  root_hint : string option;
  elements : (string * content_model) list;
  attlists : (string * attr_def list) list;
}

let empty = { root_hint = None; elements = []; attlists = [] }

let content_model t name = List.assoc_opt name t.elements

let attrs_of t name =
  match List.assoc_opt name t.attlists with Some l -> l | None -> []

let is_id_attr t ~element ~attr =
  List.exists
    (fun d -> d.attr_name = attr && d.attr_type = Id)
    (attrs_of t element)

let is_idref_attr t ~element ~attr =
  List.exists
    (fun d -> d.attr_name = attr && (d.attr_type = Idref || d.attr_type = Idrefs))
    (attrs_of t element)

let pp_attr_type = function
  | Cdata -> "CDATA"
  | Id -> "ID"
  | Idref -> "IDREF"
  | Idrefs -> "IDREFS"
  | Nmtoken -> "NMTOKEN"
  | Nmtokens -> "NMTOKENS"
  | Enumeration vs -> "(" ^ String.concat "|" vs ^ ")"

(* DTD concrete syntax for content-model regexes: ',' for sequence, '|'
   for choice, parentheses mandatory around any composite. *)
let rec pp_dtd_re (re : string Gql_regex.Syntax.t) =
  let open Gql_regex.Syntax in
  match re with
  | Empty -> "EMPTY"
  | Eps -> "()"
  | Sym s -> s
  | Seq _ ->
    let rec flatten = function
      | Seq (a, b) -> flatten a @ flatten b
      | r -> [ r ]
    in
    "(" ^ String.concat "," (List.map pp_dtd_re (flatten re)) ^ ")"
  | Alt _ ->
    let rec flatten = function
      | Alt (a, b) -> flatten a @ flatten b
      | r -> [ r ]
    in
    "(" ^ String.concat "|" (List.map pp_dtd_re (flatten re)) ^ ")"
  | Star r -> pp_dtd_re r ^ "*"
  | Plus r -> pp_dtd_re r ^ "+"
  | Opt r -> pp_dtd_re r ^ "?"

let pp_content_model = function
  | Empty_content -> "EMPTY"
  | Any_content -> "ANY"
  | Pcdata -> "(#PCDATA)"
  | Mixed names -> "(#PCDATA|" ^ String.concat "|" names ^ ")*"
  | Children re ->
    (* The DTD grammar requires the top level of a children model to be a
       parenthesised group. *)
    let s = pp_dtd_re re in
    if String.length s > 0 && s.[0] = '(' then s else "(" ^ s ^ ")"

let to_string t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, cm) ->
      Buffer.add_string buf
        (Printf.sprintf "<!ELEMENT %s %s>\n" name (pp_content_model cm)))
    t.elements;
  List.iter
    (fun (name, defs) ->
      Buffer.add_string buf (Printf.sprintf "<!ATTLIST %s" name);
      List.iter
        (fun d ->
          let dflt =
            match d.default with
            | Required -> "#REQUIRED"
            | Implied -> "#IMPLIED"
            | Fixed v -> Printf.sprintf "#FIXED \"%s\"" v
            | Default v -> Printf.sprintf "\"%s\"" v
          in
          Buffer.add_string buf
            (Printf.sprintf "\n  %s %s %s" d.attr_name (pp_attr_type d.attr_type)
               dflt))
        defs;
      Buffer.add_string buf ">\n")
    t.attlists;
  Buffer.contents buf
