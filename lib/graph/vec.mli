(** Minimal growable array (OCaml 5.1 predates [Dynarray]).

    Used for node/edge storage in {!Digraph}; amortised O(1) push. *)

type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

val create : ?capacity:int -> dummy:'a -> unit -> 'a t

val length : 'a t -> int

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> int

(** An independent copy sharing no mutable state with the original. *)
val copy : 'a t -> 'a t

(** Wrap [a] as a vector of exactly its elements.  Takes ownership of
    the array (the vector mutates it in place on [set]/[push]); callers
    that still need [a] must pass a copy. *)
val of_array : dummy:'a -> 'a array -> 'a t

val iteri : (int -> 'a -> unit) -> 'a t -> unit
