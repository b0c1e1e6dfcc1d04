(** A blocking client for the {!Protocol}: one socket, one outstanding
    request at a time.  Used by [gql client], the server tests and the
    E12 closed-loop benchmark. *)

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

val connect_unix : string -> t

val connect_tcp : host:string -> port:int -> t

val close : t -> unit

(** One round trip at the payload level. *)
val roundtrip : t -> string -> string

(** One round trip at the typed level. *)
val request :
  t -> Protocol.request -> Protocol.response

val load : t -> doc:string -> string -> (string * string, string) result

val prepare :
  t ->
  name:string -> ?schema:string -> string -> (string * string, string) result

val run :
  t ->
  doc:string ->
  ?schema:string ->
  ?deadline_ms:float ->
  [ `Named of string | `Source of string ] ->
  (string * string, string) result

val explain :
  t ->
  doc:string ->
  [ `Named of string | `Source of string ] ->
  (string * string, string) result

val stats : t -> doc:string -> (string * string, string) result

val metrics : t -> (string * string, string) result

val ping : t -> (string * string, string) result

val quit : t -> (string * string, string) result
