type shape =
  | Box
  | Round_box
  | Circle_hollow
  | Circle_filled
  | Diamond
  | Triangle

type role = Neutral | Query_part | Construct_part

type line_style = Solid | Dashed | Crossed

type node = {
  n_id : int;
  n_shape : shape;
  n_label : string;
  n_role : role;
  n_note : string option;
  (* Geometry, filled in by layout (units: pixels). *)
  mutable x : float;
  mutable y : float;
  mutable w : float;
  mutable h : float;
}

type edge = {
  e_src : int;
  e_dst : int;
  e_label : string;
  e_role : role;
  e_style : line_style;
  e_thick : bool;
}

type t = {
  title : string;
  mutable nodes : node list;
  mutable edges : edge list;
  mutable next_id : int;
}

let create title = { title; nodes = []; edges = []; next_id = 0 }

let char_w = 7.5
let node_h = 26.0

let default_size shape label =
  match shape with
  | Circle_hollow | Circle_filled -> (16.0, 16.0)
  | Triangle -> (24.0, 20.0)
  | Diamond ->
    let w = (float_of_int (String.length label) *. char_w) +. 30.0 in
    (w, node_h +. 8.0)
  | Box | Round_box ->
    let w = Float.max 30.0 ((float_of_int (String.length label) *. char_w) +. 14.0) in
    (w, node_h)

let add_node d ?(role = Neutral) ?note shape label =
  let id = d.next_id in
  d.next_id <- id + 1;
  let w, h = default_size shape label in
  d.nodes <-
    { n_id = id; n_shape = shape; n_label = label; n_role = role; n_note = note;
      x = 0.0; y = 0.0; w; h }
    :: d.nodes;
  id

let add_edge d ?(role = Neutral) ?(style = Solid) ?(thick = false) ?(label = "")
    src dst =
  d.edges <-
    { e_src = src; e_dst = dst; e_label = label; e_role = role; e_style = style;
      e_thick = thick }
    :: d.edges

let nodes d = List.rev d.nodes
let edges d = List.rev d.edges
let node_by_id d id = List.find (fun n -> n.n_id = id) d.nodes
let n_nodes d = d.next_id
let n_edges d = List.length d.edges

let extent d =
  List.fold_left
    (fun (mx, my) n -> (Float.max mx (n.x +. n.w), Float.max my (n.y +. n.h)))
    (0.0, 0.0) d.nodes
