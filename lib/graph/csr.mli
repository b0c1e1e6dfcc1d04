(** Frozen, index-friendly view of a {!Digraph}.

    [Digraph] is mutable and adjacency lives in cons lists — right for
    construction, wrong for the matcher's hot loops, where degrees are
    recomputed with [List.length] and neighbour walks chase pointers.
    Freezing packs the same graph into classic CSR (compressed sparse
    row) form: one offset array per direction plus flat neighbour/label
    arrays, so degrees are O(1) subtractions and adjacency scans are
    cache-friendly array slices.

    The frozen view is a snapshot: it does not observe later mutation of
    the source graph.  Neighbour order within a node is preserved from
    [Digraph.succ]/[Digraph.pred] (most recently added first), so code
    that iterates either representation sees the same sequence. *)

type ('n, 'e) t = {
  payloads : 'n array;
  out_off : int array;  (** length [n+1]; node [i] owns slice [out_off.(i) .. out_off.(i+1) - 1] *)
  out_dst : int array;
  out_lab : 'e array;
  in_off : int array;
  in_src : int array;
  in_lab : 'e array;
  mutable node_syms : int array;
      (** per-node interned label ids ([Gql_data.Symtab] ids, [-1] for
          nodes without a label); empty until an index build attaches
          them via {!set_node_syms}.  Ids are snapshot-local: valid only
          against the symbol table of the index that set them. *)
}

val n_nodes : ('a, 'b) t -> int

val n_edges : ('a, 'b) t -> int

val payload : ('a, 'b) t -> int -> 'a

(** Attach per-node interned label ids (length must be [n_nodes]). *)
val set_node_syms : ('a, 'b) t -> int array -> unit

(** The interned label id of [n], or [-1] when no plane is attached or
    the node carries no label — so a single integer compare answers
    "is this a complex node with label X?". *)
val node_sym : ('a, 'b) t -> int -> int

val out_degree : ('a, 'b) t -> int -> int

val in_degree : ('a, 'b) t -> int -> int

val degree : ('a, 'b) t -> int -> int

val iter_succ : (int -> 'a -> unit) -> ('b, 'a) t -> int -> unit

val iter_pred : (int -> 'a -> unit) -> ('b, 'a) t -> int -> unit

(** Per-edge derived planes, index-aligned with the out/in label slices
    (so [plane.(i)] annotates the edge [iter_succ]/[iter_pred] visits at
    position [i]).  [Gql_data.Index] uses these to resolve edge names to
    interned symbols once per snapshot for the regular-path engine. *)
val map_out_labels : ('e -> int) -> ('a, 'e) t -> int array

val map_in_labels : ('e -> int) -> ('a, 'e) t -> int array

(** Snapshot a mutable graph.  O(V + E); the result shares nothing with
    the source. *)
val freeze : ('n, 'e) Digraph.t -> ('n, 'e) t

(** Assemble a frozen view from prebuilt planes — the snapshot loader's
    constructor.  Takes ownership of every array; offsets must be
    monotone with [off.(0) = 0] and [off.(n)] equal to the edge count
    (the loader validates this against the file before calling). *)
val of_planes :
  payloads:'n array ->
  out_off:int array ->
  out_dst:int array ->
  out_lab:'e array ->
  in_off:int array ->
  in_src:int array -> in_lab:'e array -> node_syms:int array -> ('n, 'e) t

(** Rebuild a mutable {!Digraph} from the frozen view — the inverse of
    {!freeze}, used to thaw a loaded snapshot on first demand.  Preserves
    adjacency order (slice order = cons-list order), copies the payload
    array (so nodes added to the thawed graph never touch the CSR), and
    shares the immutable edge labels. *)
val thaw : ('n, 'e) t -> dummy:'n -> ('n, 'e) Digraph.t
