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

let create ~(dummy : 'n) : ('n, 'e) t =
  {
    payloads = Vec.create ~dummy ();
    out_adj = Vec.create ~dummy:[| [] |] ();
    in_adj = Vec.create ~dummy:[| [] |] ();
    n_edges = 0;
  }

let add_node g payload : node =
  let id = Vec.push g.payloads payload in
  let _ = Vec.push g.out_adj [| [] |] in
  let _ = Vec.push g.in_adj [| [] |] in
  id

let add_edge g ~src ~dst label =
  let out = Vec.get g.out_adj src in
  out.(0) <- (dst, label) :: out.(0);
  let inn = Vec.get g.in_adj dst in
  inn.(0) <- (src, label) :: inn.(0);
  g.n_edges <- g.n_edges + 1

let n_nodes g = Vec.length g.payloads
let n_edges g = g.n_edges
let payload g n = Vec.get g.payloads n

(** Outgoing (destination, label) pairs, most recently added first. *)
let succ g n = (Vec.get g.out_adj n).(0)

let pred g n = (Vec.get g.in_adj n).(0)
let out_degree g n = List.length (succ g n)
let in_degree g n = List.length (pred g n)
let nodes g = List.init (n_nodes g) Fun.id

let iter_nodes f g =
  for i = 0 to n_nodes g - 1 do
    f i (payload g i)
  done

let fold_nodes f acc g =
  let acc = ref acc in
  iter_nodes (fun i p -> acc := f !acc i p) g;
  !acc

let iter_edges f g =
  iter_nodes (fun src _ -> List.iter (fun (dst, l) -> f ~src ~dst l) (succ g src)) g

let fold_edges f acc g =
  let acc = ref acc in
  iter_edges (fun ~src ~dst l -> acc := f !acc ~src ~dst l) g;
  !acc

let edges g = List.rev (fold_edges (fun acc ~src ~dst l -> (src, l, dst) :: acc) [] g)

let find_nodes g p =
  fold_nodes (fun acc i payload -> if p payload then i :: acc else acc) [] g
  |> List.rev

(** Edges from [src] to [dst] (multigraph: may be several). *)
let edges_between g src dst =
  List.filter_map (fun (d, l) -> if d = dst then Some l else None) (succ g src)

let has_edge ?label g src dst =
  match label with
  | None -> List.exists (fun (d, _) -> d = dst) (succ g src)
  | Some l -> List.exists (fun (d, l') -> d = dst && l' = l) (succ g src)

(** Structure-preserving payload/label translation. *)
let map ~node ~edge ~dummy g =
  let g' = create ~dummy in
  iter_nodes (fun i p -> ignore (add_node g' (node i p))) g;
  iter_edges (fun ~src ~dst l -> add_edge g' ~src ~dst (edge l)) g;
  g'

(** Rebuild a mutable graph from prebuilt adjacency lists — the inverse
    of a freeze, used by the snapshot loader to thaw an on-disk CSR
    image.  Takes ownership of all three arrays; [succ]/[pred] lists
    must describe the same edge multiset ([n_edges] of them) with
    mirrored order, as {!succ}/{!pred} of the original graph did. *)
let of_adjacency ~(dummy : 'n) ~(payloads : 'n array)
    ~(succ : (int * 'e) list array) ~(pred : (int * 'e) list array)
    ~(n_edges : int) : ('n, 'e) t =
  if Array.length succ <> Array.length payloads
     || Array.length pred <> Array.length payloads
  then invalid_arg "Digraph.of_adjacency: length mismatch";
  {
    payloads = Vec.of_array ~dummy payloads;
    out_adj = Vec.of_array ~dummy:[| [] |] (Array.map (fun l -> [| l |]) succ);
    in_adj = Vec.of_array ~dummy:[| [] |] (Array.map (fun l -> [| l |]) pred);
    n_edges;
  }

(** An independent structural copy: same node ids, same adjacency-list
    order (so evaluation over the copy enumerates embeddings exactly as
    over the original), no shared mutable state. *)
let copy g =
  let copy_adj v =
    let v' = Vec.copy v in
    for i = 0 to Vec.length v' - 1 do
      Vec.set v' i (Array.copy (Vec.get v' i))
    done;
    v'
  in
  {
    payloads = Vec.copy g.payloads;
    out_adj = copy_adj g.out_adj;
    in_adj = copy_adj g.in_adj;
    n_edges = g.n_edges;
  }
