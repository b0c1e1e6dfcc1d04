type ('n, 'e) t = {
  payloads : 'n Vec.t;
  out_adj : (int * 'e) list array Vec.t;
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

let succ g n = (Vec.get g.out_adj n).(0)

let pred g n = (Vec.get g.in_adj n).(0)
let out_degree g n = List.length (succ g n)
let in_degree g n = List.length (pred g n)
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

let find_nodes g p =
  fold_nodes (fun acc i payload -> if p payload then i :: acc else acc) [] g
  |> List.rev

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
