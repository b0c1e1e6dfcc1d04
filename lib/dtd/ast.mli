(** Abstract syntax of Document Type Definitions.

    DTDs play two roles in the reproduction: they are the yardstick
    against which the paper measures XML-GL's schema expressiveness
    (figures XML-GL-DTD1/DTD2: an XML-GL graph equivalent to a BOOK/AUTHOR
    DTD), and they drive schema-aware tooling (attribute defaulting, ID
    typing for the data-graph encoder). *)

type content_model =
  | Empty_content  (** EMPTY *)
  | Any_content  (** ANY *)
  | Pcdata  (** (#PCDATA) — text only *)
  | Mixed of string list  (** (#PCDATA | a | b)° — text mixed with listed elements *)
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
  | Required  (** #REQUIRED *)
  | Implied  (** #IMPLIED *)
  | Fixed of string  (** #FIXED "v" *)
  | Default of string

type attr_def = { attr_name : string; attr_type : attr_type; default : attr_default }

type t = {
  root_hint : string option;
    (** document element name from <!DOCTYPE name ...>, when known *)
  elements : (string * content_model) list;  (** declaration order *)
  attlists : (string * attr_def list) list;  (** element name -> attributes *)
}

val empty : t

val content_model : t -> string -> content_model option

val attrs_of : t -> string -> attr_def list

(** Is [attr] of [element] declared with type ID (resp. IDREF/IDREFS)?
    These predicates plug into [Gql_xml.Ids.build]. *)
val is_id_attr : t -> element:string -> attr:string -> bool

val is_idref_attr : t -> element:string -> attr:string -> bool

val pp_content_model : content_model -> string

(** Serialise back to DTD text (round-trip tested). *)
val to_string : t -> string
