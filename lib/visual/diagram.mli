(** The retained diagram model — the data structure a visual editor for
    these languages would manipulate.

    Per the reproduction plan (DESIGN.md, substitution record), the GUI
    itself is out of scope in this environment; everything *semantic*
    about the visual languages lives here: the shape vocabulary (boxes
    for elements/entities, hollow circles for PCDATA, filled circles for
    attributes, triangles for aggregation), the edge roles (thin/red =
    query, thick/green = construction), and the line styles (dashed =
    regular path, crossed = negation).  {!Layout} computes coordinates,
    {!Svg} and {!Ascii} render. *)

type shape =
  | Box  (** element / entity *)
  | Round_box  (** term label (puigsegur-style), result wrapper *)
  | Circle_hollow  (** PCDATA circle *)
  | Circle_filled  (** attribute dot *)
  | Diamond  (** relationship (ER heritage) *)
  | Triangle

type role = Neutral | Query_part | Construct_part

type line_style = Solid | Dashed | Crossed

type node = {
  n_id : int;
  n_shape : shape;
  n_label : string;
  n_role : role;
  n_note : string option;  (** small annotation: multiplicity, tick, '*' *)
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
  e_thick : bool;  (** construction edges are drawn thick *)
}

type t = {
  title : string;
  mutable nodes : node list;  (** reversed during building *)
  mutable edges : edge list;
  mutable next_id : int;
}

val create : string -> t

val node_h : float

val add_node : t -> ?role:role -> ?note:string -> shape -> string -> int

val add_edge :
  t ->
  ?role:role ->
  ?style:line_style -> ?thick:bool -> ?label:string -> int -> int -> unit

val nodes : t -> node list

val edges : t -> edge list

val node_by_id : t -> int -> node

val n_nodes : t -> int

val n_edges : t -> int

(** Bounding box of the laid-out diagram. *)
val extent : t -> float * float
