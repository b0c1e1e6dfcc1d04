(** Persistent snapshot store: one page-aligned, sectioned, checksummed
    file holding a frozen {!Index}'s flat planes — CSR offsets and
    neighbour/label arrays, the node-symbol plane, the {!Symtab} string
    table, and every per-sym {!Gql_graph.Iset} posting pool — so a
    [gql serve] restart loads a snapshot by mapping and blitting arrays
    instead of re-parsing, re-freezing and re-indexing.

    Layout: a 4 KiB header page (magic, format version, word-layout tag,
    section table with per-section checksums, whole-header checksum)
    followed by ~50 page-aligned sections.  Elements are native OCaml
    ints stored as 8-byte words, IEEE float64 words, or raw bytes; every
    section is checksummed with the same word-mix on save and verified
    on load, and all structural invariants (monotone offsets, sorted
    keys, in-range ids) are re-validated before anything is trusted, so
    a corrupt, truncated or wrong-version file answers a typed
    {!Invalid_snapshot} — never a crash or a silent wrong answer.

    The index holds the same planes in memory ({!Index.postings} and
    {!Index.sets}: sorted keys, offsets, one pool), so [save] writes its
    fields as they are and [load] validates each section and blits it
    into the field it came from — hot planes and cold lanes alike, one
    blit per section (E17 records the map+verify and the blit cost).
    Nothing the loaded graph or index holds refers to the mapping.  The
    mutable {!Digraph} thaws behind {!Graph.of_thaw}, and the
    regular-path planes/specs/memo rebuild on demand exactly as a fresh
    build's would. *)

exception
  Invalid_snapshot of {
    path : string;
    section : string;
    offset : int;  (** byte offset of the offending section / field *)
    reason : string;
  }

val describe : exn -> string

val format_version : int

(** Counter lines in the serve METRICS [key=value] format, cumulative
    per process (ms totals across all saves/loads). *)
val stats_lines : unit -> string

(** Serialize the frozen snapshot behind [idx] to [path]; returns the
    file size in bytes.  The mutable digraph is never consulted (and a
    loaded, still-unthawed snapshot can be re-saved): everything comes
    from the CSR planes and the index's own planes, written as they are. *)
val save : path:string -> Index.t -> int

type info = {
  info_bytes : int;
  info_format : int;
  info_nodes : int;
  info_edges : int;
  info_syms : int;
  info_sections : (string * int * int) list;
      (** name, byte offset, element count *)
}

(** Map the file and verify every checksum, the header and meta
    invariants and the order of the value keys, without building an
    index — the "open" half of the E17 open vs blit measurement, and the
    engine behind [gql snapshot info]. *)
val validate : string -> info

(** Content key of a snapshot file, from the header checksum (which
    covers every section checksum, so it is content-addressing without
    re-reading the payload).  Raises {!Invalid_snapshot} on garbage. *)
val file_key : string -> string

(** Load a snapshot: verify everything, blit every plane into native
    arrays, and return the graph + index pair ([Index.graph] of the
    result is the returned graph, so [Index.refresh] on a cache seeded
    with this index is a no-op until the graph grows).  The mutable
    digraph is NOT materialised — it thaws from the CSR on first
    scan-route/fork/render use. *)
val load : path:string -> Graph.t * Index.t
