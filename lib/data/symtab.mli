(** Snapshot-local string interning.

    Every frozen {!Index} owns one symbol table mapping the strings the
    data path compares in its hot loops — node labels and edge names —
    to dense integer ids, so candidate tests become integer compares and
    postings can be keyed by id.  Ids are *snapshot-local*: a table is
    built alongside its index (and rebuilt with it on a [gql serve]
    reload), and ids from different snapshots must never be compared —
    the same label can intern to different ids in different builds.

    Interning is mutex-protected so pool workers touching a snapshot
    while another thread is still interning (a reload racing a late
    query) stay safe; the read side ([name]) is lock-free because the
    backing store is append-only and [resolve]/[intern] publish a fully
    written array before bumping [len]. *)

type t = {
  lock : Mutex.t;
  tbl : (string, int) Hashtbl.t;
  mutable names : string array;  (** id -> string; grows by doubling *)
  mutable len : int;
}

val create : ?size:int -> unit -> t

val length : t -> int

(** The id of [s], minting a fresh one on first sight.  Thread-safe. *)
val intern : t -> string -> int

(** The id of [s] if it was ever interned — the query-side lookup.  A
    miss means no node/edge in the snapshot carries the string, so a
    query naming it can only match the empty set. *)
val find : t -> string -> int option

(** The string behind [id].  Ids come from this table, so out-of-range
    is a programming error. *)
val name : t -> int -> string

(** All interned strings in id order (a build-order snapshot). *)
val to_array : t -> string array

(** Rebuild a table whose id [i] resolves to [names.(i)] — how the
    snapshot loader restores a saved table so every id recorded in the
    file's planes resolves exactly as it did in the saved index.  Takes
    ownership of [names]; entries must be distinct. *)
val of_names : string array -> t
