(** The prepared-query cache.

    Parsing a textual WG-Log/XML-GL program is pure, so one parse can
    serve every later request with the same source: entries are keyed by
    the MD5 of (schema tag, source) — [PREPARE]ing the same text twice,
    or [RUN]ning an inline query the server has seen before, hits.
    Names given by [PREPARE <name>] are aliases onto the hash table, so
    a re-[PREPARE] of a name with new text simply repoints the alias.

    Eviction is FIFO at [capacity] parses; aliases to an evicted hash
    fall back to a re-parse on next use (the alias also remembers the
    source). *)

type prepared =
  | Xmlgl of Gql_xmlgl.Ast.program
  | Wglog of Gql_wglog.Ast.program
  | Match of Gql_match.Ast.query

type entry = {
  hash : string;  (** hex MD5 of (schema, source) *)
  lang : [ `Xmlgl | `Wglog | `Match ];
  schema : string option;
  source : string;
  prepared : prepared;
}

type t = {
  mutex : Mutex.t;
  capacity : int;
  by_hash : (string, entry) Hashtbl.t;
  fifo : string Queue.t;
  by_name : (string, string * string option) Hashtbl.t;
      (** name -> (source, schema): survives hash eviction *)
}

val create : ?capacity:int -> unit -> t

val schema_of_tag :
  string option -> (Gql_wglog.Schema.t option, string) result

(** Parse-or-reuse by source text; [hit] says the parse was skipped. *)
val intern :
  t -> schema:string option -> string -> (entry * bool, string) result

(** [PREPARE name]: intern the source and alias [name] to it. *)
val prepare :
  t ->
  name:string ->
  schema:string option -> string -> (entry * bool, string) result

(** Resolve a [PREPARE]d name (re-parsing if the hash was evicted). *)
val find_named : t -> string -> (entry * bool, string) result
