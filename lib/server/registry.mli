(** The document registry: named, versioned, frozen snapshots.

    [LOAD] parses the XML, encodes the data graph and builds the frozen
    {!Gql_data.Index} *once*; the resulting snapshot is then shared
    immutably by every worker domain — reads need no lock because
    nothing ever mutates a published snapshot.  Re-loading a name
    installs a fresh snapshot under a bumped [version]; the version is
    part of every result-cache key, so cached results of the old
    snapshot can never be served for the new one.  The index carries
    the snapshot's {!Gql_data.Symtab} — symbol ids are snapshot-local,
    so a re-load builds a fresh interner along with the fresh index and
    ids must never be held across, or compared between, versions.

    Publishes are keyed by a content digest: re-loading an identical
    document (or snapshot file) under the same name is recognised
    *before* any parse/index work, returns the existing snapshot with
    its version unchanged, and therefore keeps every [Rcache]/[Pcache]
    entry warm — only genuinely new content invalidates.

    The only mutation a query can demand — WG-Log's deductive fixpoint —
    never touches the snapshot: the fixpoint reads the shared graph on
    the snapshot's own index and, at its first construction, continues
    on a private order-preserving copy that is discarded after the
    request ([Gql_wglog.Eval.run ~copy_on_write:true]).  A program that
    constructs nothing never copies. *)

type snapshot = {
  name : string;
  version : int;
  key : string;  (** content digest of the underlying doc/file *)
  db : Gql_core.Gql.db;  (** graph + document + DTD, treated read-only *)
  index : Gql_data.Index.t;  (** frozen CSR + access paths *)
  nodes : int;
  edges : int;
}

type t = {
  mutex : Mutex.t;
  table : (string, snapshot) Hashtbl.t;
  versions : (string, int) Hashtbl.t;  (** survives re-loads *)
}

val create : unit -> t

val find_keyed : t -> string -> string -> snapshot option

val install :
  t -> string -> string -> Gql_core.Gql.db -> Gql_data.Index.t -> snapshot

(** Parse, encode and index an XML source under [name].  Keyed by the
    source digest: re-loading byte-identical XML skips even the parse
    and returns the current snapshot, version unchanged. *)
val load_xml : t -> name:string -> string -> (snapshot, string) result

(** Load a snapshot file ({!Gql_data.Store}) under [name].  Keyed by the
    file's content key, so re-loading an unchanged file bumps no
    version; the prebuilt index is installed directly — no re-freeze. *)
val load_snapshot : t -> name:string -> string -> (snapshot, string) result

val find : t -> string -> snapshot option

(** A private mutable copy of the snapshot's graph: the eager
    reference the copy-on-write fixpoint is tested against. *)
val fork : snapshot -> Gql_data.Graph.t
