let h_gap = 36.0
let v_gap = 54.0
let margin = 20.0

(* Build adjacency over diagram node ids. *)
let adjacency (d : Diagram.t) =
  let n = Diagram.n_nodes d in
  let out = Array.make n [] in
  let inn = Array.make n [] in
  List.iter
    (fun (e : Diagram.edge) ->
      out.(e.e_src) <- e.e_dst :: out.(e.e_src);
      inn.(e.e_dst) <- e.e_src :: inn.(e.e_dst))
    (Diagram.edges d);
  (out, inn)

(** Longest-path layering; cycles are broken by ignoring back edges found
    by a DFS (queries are near-DAGs; back edges are rare and only occur
    in recursive schemas). *)
let assign_layers (d : Diagram.t) : int array =
  let n = Diagram.n_nodes d in
  let out, inn = adjacency d in
  (* DFS to mark back edges. *)
  let colour = Array.make n 0 in
  let back = Hashtbl.create 8 in
  let rec dfs u =
    colour.(u) <- 1;
    List.iter
      (fun v ->
        if colour.(v) = 0 then dfs v
        else if colour.(v) = 1 then Hashtbl.replace back (u, v) ())
      out.(u);
    colour.(u) <- 2
  in
  for u = 0 to n - 1 do
    if colour.(u) = 0 then dfs u
  done;
  let is_back u v = Hashtbl.mem back (u, v) in
  (* Longest path from sources over forward edges. *)
  let layer = Array.make n 0 in
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    List.iter (fun u -> if not (is_back u v) then indeg.(v) <- indeg.(v) + 1) inn.(v)
  done;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    List.iter
      (fun v ->
        if not (is_back u v) then begin
          if layer.(v) < layer.(u) + 1 then layer.(v) <- layer.(u) + 1;
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v queue
        end)
      out.(u)
  done;
  layer

(** Barycentric crossing reduction: order each layer by the mean position
    of neighbours in the adjacent layer, sweeping down then up, a few
    rounds. *)
let order_layers (d : Diagram.t) (layer : int array) : int list array =
  let n = Diagram.n_nodes d in
  let out, inn = adjacency d in
  let max_layer = Array.fold_left max 0 layer in
  let layers = Array.make (max_layer + 1) [] in
  for v = n - 1 downto 0 do
    layers.(layer.(v)) <- v :: layers.(layer.(v))
  done;
  let position = Array.make n 0.0 in
  let refresh l = List.iteri (fun i v -> position.(v) <- float_of_int i) l in
  Array.iter refresh layers;
  let barycentre neigh v =
    match neigh v with
    | [] -> position.(v)
    | ns ->
      List.fold_left (fun acc u -> acc +. position.(u)) 0.0 ns
      /. float_of_int (List.length ns)
  in
  for _pass = 1 to 4 do
    (* downward sweep: order by in-neighbour barycentre *)
    for l = 1 to max_layer do
      let sorted =
        List.stable_sort
          (fun a b -> compare (barycentre (fun v -> inn.(v)) a) (barycentre (fun v -> inn.(v)) b))
          layers.(l)
      in
      layers.(l) <- sorted;
      refresh sorted
    done;
    (* upward sweep *)
    for l = max_layer - 1 downto 0 do
      let sorted =
        List.stable_sort
          (fun a b -> compare (barycentre (fun v -> out.(v)) a) (barycentre (fun v -> out.(v)) b))
          layers.(l)
      in
      layers.(l) <- sorted;
      refresh sorted
    done
  done;
  layers

(** Assign coordinates. *)
let place (d : Diagram.t) (layers : int list array) : unit =
  let node = Diagram.node_by_id d in
  Array.iteri
    (fun l ids ->
      let y = margin +. (float_of_int l *. v_gap) in
      let x = ref margin in
      List.iter
        (fun id ->
          let nd = node id in
          nd.Diagram.x <- !x;
          nd.Diagram.y <- y +. ((Diagram.node_h -. nd.Diagram.h) /. 2.0);
          x := !x +. nd.Diagram.w +. h_gap)
        ids)
    layers;
  (* Centre each layer horizontally. *)
  let width, _ = Diagram.extent d in
  Array.iter
    (fun ids ->
      match ids with
      | [] -> ()
      | _ ->
        let last = node (List.nth ids (List.length ids - 1)) in
        let layer_w = last.Diagram.x +. last.Diagram.w -. margin in
        let shift = (width -. margin -. layer_w) /. 2.0 in
        if shift > 0.0 then
          List.iter (fun id -> (node id).Diagram.x <- (node id).Diagram.x +. shift) ids)
    layers

let layered (d : Diagram.t) : unit =
  if Diagram.n_nodes d > 0 then begin
    let layer = assign_layers d in
    let layers = order_layers d layer in
    place d layers
  end

let grid ?(per_row = 6) (d : Diagram.t) : unit =
  List.iteri
    (fun i n ->
      n.Diagram.x <- margin +. (float_of_int (i mod per_row) *. 140.0);
      n.Diagram.y <- margin +. (float_of_int (i / per_row) *. v_gap))
    (Diagram.nodes d)

(* ------------------------------------------------------------------ *)
(* Metrics (E10)                                                       *)
(* ------------------------------------------------------------------ *)

let centre (n : Diagram.node) =
  (n.Diagram.x +. (n.Diagram.w /. 2.0), n.Diagram.y +. (n.Diagram.h /. 2.0))

let segments_cross (x1, y1) (x2, y2) (x3, y3) (x4, y4) =
  let d (ax, ay) (bx, by) (cx, cy) =
    ((bx -. ax) *. (cy -. ay)) -. ((by -. ay) *. (cx -. ax))
  in
  let d1 = d (x3, y3) (x4, y4) (x1, y1) in
  let d2 = d (x3, y3) (x4, y4) (x2, y2) in
  let d3 = d (x1, y1) (x2, y2) (x3, y3) in
  let d4 = d (x1, y1) (x2, y2) (x4, y4) in
  ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
  && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))

let count_crossings (d : Diagram.t) : int =
  let es = Array.of_list (Diagram.edges d) in
  let node = Diagram.node_by_id d in
  let seg (e : Diagram.edge) = (centre (node e.e_src), centre (node e.e_dst)) in
  let count = ref 0 in
  for i = 0 to Array.length es - 1 do
    for j = i + 1 to Array.length es - 1 do
      let a = es.(i) and b = es.(j) in
      if
        a.e_src <> b.e_src && a.e_src <> b.e_dst && a.e_dst <> b.e_src
        && a.e_dst <> b.e_dst
      then begin
        let (p1, p2) = seg a and (p3, p4) = seg b in
        if segments_cross p1 p2 p3 p4 then incr count
      end
    done
  done;
  !count
