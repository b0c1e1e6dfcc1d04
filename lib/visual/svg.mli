(** SVG rendering of laid-out diagrams.

    Colour/thickness encode the paper's conventions: query structure in
    red thin strokes, construction structure in green thick strokes,
    dashed lines for regular path edges, a cross mark on negated edges. *)

(** Lay out (layered) and render in one go. *)
val render_auto : Diagram.t -> string

val write_file : string -> Diagram.t -> unit
