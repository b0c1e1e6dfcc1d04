(** The LRU result cache.

    Evaluation over a frozen snapshot is deterministic, so the rendered
    response body of a [RUN] or [EXPLAIN] is safe to replay as long as
    the inputs are the same.  Keys therefore bind everything the result
    depends on: the document name *and its snapshot version*, the
    prepared query's hash, and the command kind.  Invalidation is the
    version: re-[LOAD]ing a document bumps it, making old keys
    unreachable, and {!purge_doc} drops them eagerly so the capacity is
    not squatted by dead entries.

    A classic intrusive doubly-linked LRU under one mutex: [find] is a
    hash lookup + list splice, [add] evicts from the tail. *)

type key = {
  doc : string;
  version : int;
  qhash : string;
  kind : string;  (** "run" | "explain" *)
}

type node = {
  key : key;
  value : string;  (** rendered response body *)
  info : string;  (** rendered OK-line info *)
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  mutex : Mutex.t;
  capacity : int;
  table : (key, node) Hashtbl.t;
  mutable head : node option;  (** most recently used *)
  mutable tail : node option;
}

val create : ?capacity:int -> unit -> t

val find : t -> key -> (string * string) option

val add : t -> key -> info:string -> string -> unit

(** Drop every entry of [doc] (any version) — called on re-[LOAD]. *)
val purge_doc : t -> string -> unit

