(** The LRU plan cache.

    Planning a MATCH query against a frozen snapshot is deterministic
    but not free: the cost-based planner scans for cardinality
    estimates, samples fan-outs and enumerates join orders.  Serve
    traffic repeats the same few queries against the same snapshot, so
    the planned form ({!Gql_match.Eval.prepared}) is cached keyed by
    everything it depends on: the document name *and its snapshot
    version* plus the prepared query's hash (the same MD5 `Qcache`
    keys by).  Invalidation mirrors {!Rcache}: re-[LOAD]ing a document
    bumps its version, and {!purge_doc} eagerly drops dead entries.

    The value type is polymorphic so the cache stores prepared plans
    without this module depending on the front-ends.  Same intrusive
    doubly-linked LRU under one mutex as {!Rcache}. *)

type key = { doc : string; version : int; qhash : string }

type 'a node = {
  key : key;
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  mutex : Mutex.t;
  capacity : int;
  table : (key, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (** most recently used *)
  mutable tail : 'a node option;
}

val create : ?capacity:int -> unit -> 'a t

val find : 'a t -> key -> 'a option

val add : 'a t -> key -> 'a -> unit

(** Drop every entry of [doc] (any version) — called on re-[LOAD]. *)
val purge_doc : 'a t -> string -> unit
