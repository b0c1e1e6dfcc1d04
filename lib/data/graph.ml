(** The semi-structured data graph (OEM-style).

    This is the model both query languages evaluate over.  A node is
    either a *complex* object carrying a label (element name / entity
    type) or an *atom* carrying a value; edges carry a name, an edge kind
    and an optional position:

    - [Child]: XML containment; [ord] records document order so XML-GL's
      "ordered content" tick can be honoured;
    - [Attribute]: XML attributes (the paper draws them as filled
      circles);
    - [Ref]: a resolved ID/IDREF link — these are what make the data a
      graph rather than a tree;
    - [Rel]: a named relation edge for WG-Log-style entity databases
      (e.g. [offers] between [Restaurant] and [Menu]). *)

type node_kind =
  | Complex of string
  | Atom of Value.t

type edge_kind = Child | Attribute | Ref | Rel

type edge = {
  name : string;
  kind : edge_kind;
  ord : int option;
  gen : int;
      (** derivation generation: 0 for base facts, n for edges added by
          the n-th round of a WG-Log fixpoint — what makes semi-naive
          evaluation possible *)
}

type digraph = (node_kind, edge) Gql_graph.Digraph.t

(** The mutable adjacency representation is held behind a one-shot lazy
    cell so a snapshot loaded from disk ({!Gql_data.Store}) can serve
    indexed queries off its CSR planes without ever paying the cons-list
    rebuild; the {!Digraph} materialises only when an engine actually
    walks it (scan routes, WG-Log forks, dot rendering).  Node kinds are
    read from the snapshot's payload plane while the cell is empty, so
    testing and rendering nodes never thaws.  Graphs built in memory
    start with the cell already filled, so nothing changes for them. *)
type t = {
  cell : digraph option Atomic.t;
  thaw : unit -> digraph;  (** called at most once, under [thaw_lock] *)
  kinds : node_kind array;  (** node payloads while unforced *)
  hint_nodes : int;  (** counts while unforced — keeps [Index.refresh]'s *)
  hint_edges : int;  (** version check from forcing the thaw *)
  mutable roots : Gql_graph.Digraph.node list;
}

type node = Gql_graph.Digraph.node

let dummy_kind = Complex ""
let thaw_lock = Mutex.create ()
let no_thaw () : digraph = assert false (* cell starts filled *)

(** The underlying mutable graph, thawing it on first use.  The slow
    path runs under a global lock so concurrent server domains force a
    loaded snapshot exactly once. *)
let digraph t : digraph =
  match Atomic.get t.cell with
  | Some g -> g
  | None ->
    Mutex.protect thaw_lock (fun () ->
        match Atomic.get t.cell with
        | Some g -> g
        | None ->
          let g = t.thaw () in
          Atomic.set t.cell (Some g);
          g)

let forced t = Option.is_some (Atomic.get t.cell)

let of_digraph g roots : t =
  { cell = Atomic.make (Some g); thaw = no_thaw; kinds = [||];
    hint_nodes = 0; hint_edges = 0; roots }

let create () : t = of_digraph (Gql_graph.Digraph.create ~dummy:dummy_kind) []

(** A graph whose adjacency thaws on demand.  [kinds] and
    [n_nodes]/[n_edges] must equal the payloads and counts of the graph
    [thaw] will produce: they are answered from here while the cell is
    empty. *)
let of_thaw ~kinds ~n_nodes ~n_edges ~roots thaw : t =
  { cell = Atomic.make None; thaw; kinds; hint_nodes = n_nodes;
    hint_edges = n_edges; roots }

(** An independent copy of the data graph; forked snapshots let the
    deductive WG-Log evaluator saturate a private graph while the
    original stays frozen (the server's per-request semantics). *)
let copy t : t = of_digraph (Gql_graph.Digraph.copy (digraph t)) t.roots

let add_complex t label = Gql_graph.Digraph.add_node (digraph t) (Complex label)
let add_atom t v = Gql_graph.Digraph.add_node (digraph t) (Atom v)
let add_root t n = t.roots <- t.roots @ [ n ]

let child_edge ?ord name = { name; kind = Child; ord; gen = 0 }
let attr_edge name = { name; kind = Attribute; ord = None; gen = 0 }
let ref_edge name = { name; kind = Ref; ord = None; gen = 0 }
let rel_edge ?(gen = 0) name = { name; kind = Rel; ord = None; gen }

let link t ~src ~dst e = Gql_graph.Digraph.add_edge (digraph t) ~src ~dst e

let kind t n =
  match Atomic.get t.cell with
  | Some g -> Gql_graph.Digraph.payload g n
  | None -> t.kinds.(n)

let label t n =
  match kind t n with
  | Complex l -> Some l
  | Atom _ -> None

let atom_value t n =
  match kind t n with
  | Atom v -> Some v
  | Complex _ -> None

let is_atom t n = match kind t n with Atom _ -> true | Complex _ -> false

let out t n = Gql_graph.Digraph.succ (digraph t) n
let inn t n = Gql_graph.Digraph.pred (digraph t) n

(* Counts come from the hints while unforced: [Index.refresh] compares
   them against the index version on every query, and that check must
   not thaw a freshly loaded snapshot. *)
let n_nodes t =
  match Atomic.get t.cell with
  | Some g -> Gql_graph.Digraph.n_nodes g
  | None -> t.hint_nodes

let n_edges t =
  match Atomic.get t.cell with
  | Some g -> Gql_graph.Digraph.n_edges g
  | None -> t.hint_edges

let roots t = t.roots

(** Children in stored order: [Child] edges sorted by [ord]. *)
let children t n =
  out t n
  |> List.filter_map (fun (dst, e) ->
         match e.kind with
         | Child -> Some (e.ord, dst, e)
         | Attribute | Ref | Rel -> None)
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.map (fun (_, dst, e) -> (dst, e))

let attributes t n =
  out t n
  |> List.filter_map (fun (dst, e) ->
         match e.kind, atom_value t dst with
         | Attribute, Some v -> Some (e.name, v)
         | (Attribute | Child | Ref | Rel), _ -> None)
  |> List.sort compare

let refs t n =
  List.filter_map
    (fun (dst, e) -> match e.kind with Ref -> Some (e.name, dst) | _ -> None)
    (out t n)

let rels t n =
  List.filter_map
    (fun (dst, e) -> match e.kind with Rel -> Some (e.name, dst) | _ -> None)
    (out t n)

(** The string-value of a node: its atom, or the concatenation of the
    string-values of its children in order (XPath-style). *)
let rec string_value t n =
  match kind t n with
  | Atom v -> Value.to_string v
  | Complex _ ->
    String.concat "" (List.map (fun (c, _) -> string_value t c) (children t n))

(** Typed value of a node: atoms as themselves, complex nodes by their
    string-value with inference. *)
let node_value t n =
  match kind t n with
  | Atom v -> v
  | Complex _ -> Value.of_string (string_value t n)

(** All nodes with a given label. *)
let nodes_labelled t lbl =
  Gql_graph.Digraph.find_nodes (digraph t) (function
    | Complex l -> l = lbl
    | Atom _ -> false)

(** Nodes reachable from [n] via Child/Ref/Rel edges (descendants in the
    graph sense), excluding [n]. *)
let descendants t n =
  let order =
    Gql_graph.Algo.bfs
      ~follow:(fun e -> e.kind <> Attribute)
      (digraph t) [ n ]
  in
  List.filter (fun m -> m <> n) order

let pp_edge e =
  let k =
    match e.kind with
    | Child -> "child"
    | Attribute -> "attr"
    | Ref -> "ref"
    | Rel -> "rel"
  in
  match e.name, e.ord with
  | "", Some i -> Printf.sprintf "%s[%d]" k i
  | "", None -> k
  | n, Some i -> Printf.sprintf "%s:%s[%d]" k n i
  | n, None -> Printf.sprintf "%s:%s" k n

let to_dot t =
  Gql_graph.Dot.to_string
    ~node_label:(fun n k ->
      match k with
      | Complex l -> Printf.sprintf "%s (%d)" l n
      | Atom v -> Value.to_string v)
    ~node_attrs:(fun _ k ->
      match k with
      | Complex _ -> [ ("shape", "box") ]
      | Atom _ -> [ ("shape", "ellipse") ])
    ~edge_label:pp_edge (digraph t)
