(** Sorted integer sets over flat arrays — the candidate-set currency of
    the whole data path.

    A set is an [int array] that is sorted ascending and duplicate-free;
    that invariant is what every operation below assumes and preserves.
    The representation is deliberately transparent: index postings,
    matcher candidate lists and planner estimates all share the same
    arrays with zero copying, [length] is O(1), and {!Par} can hand a
    contiguous [sub] slice to each domain without rebuilding lists.

    Intersection is the hot operation (candidate propagation intersects
    the postings of every pattern edge incident to the bound region).
    [inter] picks between a linear merge and a galloping search: when
    one side is much smaller, binary-search probes from the small side
    cost O(|small| * log |large|) instead of O(|small| + |large|).
    {!inter_linear} and {!inter_gallop} expose both paths so tests can
    pin the crossover behaviour. *)

type t = int array
(** sorted ascending, no duplicates *)

val empty : t

val length : t -> int

val is_empty : t -> bool

val get : t -> int -> int

val to_list : t -> int list

val iter : (int -> unit) -> t -> unit

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

(** Contiguous slice [\[lo, lo+len)] — still sorted and unique, so the
    result is itself a set.  This is how the parallel driver chunks a
    candidate set. *)
val sub : t -> int -> int -> t

val of_list : int list -> t

(** Trusted constructor: [a] must already be sorted and duplicate-free.
    Shares the array — never mutate it afterwards. *)
val unsafe_of_sorted_array : int array -> t

(** Membership of [x] in the sorted slice [pool.[lo, hi)] without
    materialising it — the snapshot loader's flat postings answer link
    tests straight off the shared pool array, allocating nothing. *)
val mem_range : int array -> lo:int -> hi:int -> int -> bool

val mem : t -> int -> bool

val inter_linear : t -> t -> t

(** Galloping intersection: probe each element of the smaller set into
    the larger one, restarting the binary search past the last hit so a
    full pass costs O(|small| * log |large|). *)
val inter_gallop : t -> t -> t

val gallop_factor : int

val inter : t -> t -> t

(** Intersect all sets, smallest first, so intermediate results can only
    shrink and every later intersection is vs. the current (small)
    running set.  [inter_many []] is undefined domain-wise; callers
    guard the empty case. *)
val inter_many : t list -> t

val union : t -> t -> t

(** Elements of [a] not in [b]. *)
val diff : t -> t -> t

(** Order-preserving filter — the matcher's node-predicate re-check. *)
val filter : (int -> bool) -> t -> t
