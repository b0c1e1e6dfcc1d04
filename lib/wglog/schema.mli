(** WG-Log schemas.

    Unlike XML-GL, WG-Log is *schema-aware* ("the patterns are explicitly
    based on schemas"; "WG-Log is only applicable to schema based data").
    A schema is itself a graph: node types (entities and the atomic slots
    hanging off them) and edge types with the source/destination types
    they connect and ER-style multiplicities.  Rules are checked against
    the schema before evaluation — the static guarantees are what the
    paper trades schema freedom for. *)

type multiplicity = M_one_one | M_one_many | M_many_one | M_many_many

type edge_type = {
  et_name : string;
  et_src : string;  (** source entity type *)
  et_dst : string;  (** destination entity type, or "string"/"int"/... for slots *)
  et_mult : multiplicity;
}

type t = {
  entities : string list;
  slots : (string * string * string) list;
      (** (entity, slot name, value type) — atomic attributes *)
  edge_types : edge_type list;
}

val has_entity : t -> string -> bool

val edge_type : t -> string -> edge_type option

val slots_of : t -> string -> (string * string) list

type error = string

(** Check internal consistency: every edge type connects declared
    entities; slot entities are declared.  With {!validate}, this is the
    paper's WG-Log schema checking, which the tests reproduce; nothing
    in the engines calls it. *)
val check : t -> error list

(** Enforce the ER-style multiplicities: a [1:1] relation admits at most
    one outgoing edge per source and one incoming per destination; [1:n]
    constrains the destination side, [n:1] the source side. *)
val check_multiplicities : t -> Gql_data.Graph.t -> error list

(** Validate a data graph against the schema: every complex node's label
    must be a declared entity; every Rel edge a declared edge type with
    matching endpoint types; slot edges must match declared slots;
    multiplicities must hold. *)
val validate : t -> Gql_data.Graph.t -> error list

(** The restaurant schema backing the paper's WG-Log figure: Restaurants
    [offer] Menus; both have a [name] slot, menus have a [price]. *)
val restaurant_schema : t

(** The schema of the million-node parallel-scaling fixtures
    ({!Gql_workload.Gen.wide_graph} / [deep_graph] / [skewed_graph]):
    hubs own items, chain heads thread cells ([next] continues
    cell-to-cell, traversed only through path edges, which are
    schema-unchecked by design), groups own members. *)
val scale_schema : t

(** The hyperdocument schema backing the GraphLog figures: documents
    connected by [link]/[index] edges; derived [sibling] and [root]. *)
val hyperdoc_schema : t
