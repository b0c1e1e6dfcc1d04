(** Synthetic workload generators.

    Four families, all seeded and size-parametric:

    - {!bibliography}: documents over the paper's BOOK/AUTHOR DTD
      (figure XML-GL-DTD2), with an optional defect rate for validation
      experiments;
    - {!greengrocer}: the supplied text's running products/vendors
      database, including the vendor name value-join the examples use;
    - {!people}: the PERSON/FULLADDR corpus of the aggregation figure
      (E4), with a controllable fraction of persons lacking an address;
    - {!hyperdocs}: GraphLog's hyperdocument link graphs (E5/E8) as a
      data graph with [link]/[index] relations;
    - {!random_tree}: depth/fanout-controlled trees with ID/IDREF noise
      for scalability sweeps (E7). *)

val book_dtd_text : string

val book_dtd : Gql_dtd.Ast.t

(** A bibliography with [n] books.  [defect_rate] (0.0-1.0) makes that
    fraction of books violate the DTD in a random way (missing price,
    misplaced title, author without last name) — used by E2. *)
val bibliography : ?seed:int -> ?defect_rate:float -> int -> Gql_xml.Tree.doc

(** The running greengrocer database: [n] products, [v] vendors; product
    [vendor] children join vendor [name]s by value, as in the Xcerpt
    examples. *)
val greengrocer : ?seed:int -> ?vendors:int -> int -> Gql_xml.Tree.doc

(** The PERSON corpus of the aggregation figure: [n] persons, a fraction
    [with_addr] of which carry a FULLADDR.  Persons share employers so
    join queries have real fan-in. *)
val people :
  ?seed:int -> ?with_addr:float -> ?companies:int -> int -> Gql_xml.Tree.doc

(** A hyperdocument graph in the GraphLog style: [n] Document entities;
    ~[idx_fraction] of them are index documents pointing to [fanout]
    children via [index] edges; the rest receive random [link] edges.
    Returned directly as a data graph (these databases are graphs, not
    documents). *)
val hyperdocs :
  ?seed:int -> ?fanout:int -> ?link_factor:int -> int -> Gql_data.Graph.t

(** The restaurant database of the WG-Log figure: restaurants in cities,
    a fraction of which offer menus. *)
val restaurants :
  ?seed:int -> ?menu_fraction:float -> int -> Gql_data.Graph.t

(** A flat entity graph stressing label/value selectivity: [labels]
    distinct entity types ["L0" .. "L{labels-1}"] with [per_label]
    instances each, every instance carrying a unique [key] attribute
    ["k-<i>"], and [degree] random [rel] edges from each instance of
    layer [j] into layer [j+1] (wrapping).  Scan-based matching sees
    [labels * per_label * 2] nodes per candidate pass; indexed matching
    sees one label bucket — this is the A/B graph of the benchmark
    trajectory. *)
val labelled_graph :
  ?seed:int ->
  ?labels:int -> ?per_label:int -> ?degree:int -> unit -> Gql_data.Graph.t

(** Wide: [hubs] "Hub" entities each owning ~[n/hubs] of the [n] "Item"
    entities via a [rel] edge.  Matching [Hub -rel-> Item] binds a hub
    first (small candidate set) and fans out over its members — many
    equal-sized seeds, the friendly case for chunking. *)
val wide_graph : ?seed:int -> ?hubs:int -> int -> Gql_data.Graph.t

(** Deep: [chains] linked lists of "Cell" entities (heads labelled
    "Head"), [n/chains] long, threaded by [next] edges.  Matching
    [Head -next+-> Cell] walks one whole chain per seed — few seeds,
    each hiding a long regular-path traversal. *)
val deep_graph : ?seed:int -> ?chains:int -> int -> Gql_data.Graph.t

(** Skewed: [groups] "Group" entities whose "Member" populations follow
    a harmonic distribution — group 0 owns ~[n/H(groups)] members,
    group [i] a [1/(i+1)] share — connected by [member] edges.  Seed
    costs differ by orders of magnitude, so static chunking loses and
    the adaptive granularity + work stealing have to earn their keep. *)
val skewed_graph : ?seed:int -> ?groups:int -> int -> Gql_data.Graph.t

(** Random tree with approximately [n] nodes, mean [fanout], tags from a
    small pool, and [ref_density] ID/IDREF pairs per node (revealing
    graph structure).  Used by the scalability sweeps. *)
val random_tree :
  ?seed:int -> ?fanout:int -> ?ref_density:float -> int -> Gql_xml.Tree.doc

