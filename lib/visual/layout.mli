(** Automatic layout: layered (Sugiyama-style) drawing.

    The paper remarks that "complicated graphs could tend to be cluttered
    with many edges"; experiment E10 quantifies this with the two layout
    strategies implemented here:

    - {!layered}: longest-path layering + iterated barycentric ordering
      inside layers (crossing reduction) + per-layer coordinates;
    - {!grid}: the naive baseline — nodes placed row by row in id order.

    {!count_crossings} reports edge crossings of a laid-out diagram, the
    standard clutter metric. *)

val layered : Diagram.t -> unit

(** Naive baseline: fixed-width rows in id order. *)
val grid : ?per_row:int -> Diagram.t -> unit

(** Number of pairwise edge crossings in the current geometry (edges as
    straight centre-to-centre segments, pairs sharing an endpoint
    skipped). *)
val count_crossings : Diagram.t -> int
