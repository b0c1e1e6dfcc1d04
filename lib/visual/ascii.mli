(** ASCII rendering of laid-out diagrams — the terminal/test view.

    Coordinates are down-scaled onto a character grid; nodes draw as
    bracketed labels whose delimiters encode the shape, edges as a list
    below the picture (drawing crossing-free ASCII edge paths is not
    worth the complexity for graphs that are rendered properly by
    {!Svg}). *)

val render_auto : Diagram.t -> string
