(** Labelled directed multigraphs.

    The shared substrate under both visual languages: WG-Log queries
    *are* graphs, XML-GL patterns are graphs, and the semi-structured
    databases they run on ([Gql_data.Graph]) are graphs too.

    Nodes are dense integer ids carrying a payload ['n]; edges carry a
    label ['e].  The structure is mutable during construction and then
    used as read-only; all analysis lives in {!Algo}, {!Regpath},
    {!Homo}. *)

type ('n, 'e) t = {
  payloads : 'n Vec.t;
  out_adj : (int * 'e) list array Vec.t;  (** boxed to allow growth *)
  in_adj : (int * 'e) list array Vec.t;
  mutable n_edges : int;
}

type node = int

val create : dummy:'n -> ('n, 'e) t

val add_node : ('a, 'b) t -> 'a -> node

val add_edge : ('a, 'b) t -> src:int -> dst:int -> 'b -> unit

val n_nodes : ('a, 'b) t -> int

val n_edges : ('a, 'b) t -> int

val payload : ('a, 'b) t -> int -> 'a

(** Outgoing (destination, label) pairs, most recently added first. *)
val succ : ('a, 'b) t -> int -> (int * 'b) list

val pred : ('a, 'b) t -> int -> (int * 'b) list

val out_degree : ('a, 'b) t -> int -> int

val in_degree : ('a, 'b) t -> int -> int

val iter_nodes : (int -> 'a -> unit) -> ('a, 'b) t -> unit

val fold_nodes : ('a -> int -> 'b -> 'a) -> 'a -> ('b, 'c) t -> 'a

val iter_edges : (src:int -> dst:int -> 'a -> unit) -> ('b, 'a) t -> unit

val find_nodes : ('a, 'b) t -> ('a -> bool) -> int list

(** Rebuild a mutable graph from prebuilt adjacency lists — the inverse
    of a freeze, used by the snapshot loader to thaw an on-disk CSR
    image.  Takes ownership of all three arrays; [succ]/[pred] lists
    must describe the same edge multiset ([n_edges] of them) with
    mirrored order, as {!succ}/{!pred} of the original graph did. *)
val of_adjacency :
  dummy:'n ->
  payloads:'n array ->
  succ:(int * 'e) list array ->
  pred:(int * 'e) list array -> n_edges:int -> ('n, 'e) t

(** An independent structural copy: same node ids, same adjacency-list
    order (so evaluation over the copy enumerates embeddings exactly as
    over the original), no shared mutable state. *)
val copy : ('a, 'b) t -> ('a, 'b) t
