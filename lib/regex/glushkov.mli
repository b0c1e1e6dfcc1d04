(** Glushkov (position) automata — the one automaton construction behind
    every regular expression in the system.

    Positions number the symbol leaves of the expression left to right
    (the order of {!Syntax.symbols}), starting at 1; state 0 is the
    start, and state [p > 0] means "position [p] was just read".  A
    transition into [p] reads a token matching the symbol at [p], so the
    automaton is ε-free by construction and has one state per leaf plus
    the start.

    DTD content models such as [(title?, price, AUTHOR°)] (where ° is the
    Kleene star) are regular expressions over element names, and the
    XML 1.0 rule that content models be *deterministic* (1-unambiguous)
    is exactly determinism of this automaton.  Character regexes
    ({!Chre}) run it over position bitsets, and regular path expressions
    ([Gql_graph.Regpath]) flatten it into a product-BFS automaton. *)

type 'a t = {
  syms : 'a array;  (** [syms.(p - 1)] is the symbol at position [p] *)
  follow : int array array;
      (** [follow.(q)], ascending: the positions that may be read in
          state [q]; [follow.(0)] is the first set *)
  last : int array;  (** ascending *)
  nullable : bool;
  words : int;  (** bitset width: ⌈(n + 1) / 63⌉ ints *)
  follow_bits : int array;  (** row [q] (at [q * words]) = [follow.(q)] *)
  final_bits : int array;  (** [last], plus state 0 when [nullable] *)
}

val n_positions : 'a t -> int

val sym_at : 'a t -> int -> 'a

val first : 'a t -> int array

val follow : 'a t -> int -> int array

val last : 'a t -> int array

val nullable : 'a t -> bool

val words : 'a t -> int

val empty_set : 'a t -> int array

val add : int array -> int -> unit

val start_set : 'a t -> int array

(** Bitset of the positions whose symbol satisfies [f]. *)
val mask : 'a t -> ('a -> bool) -> int array

(** [step t cur ~mask ~moff next] sets [next] to the positions that
    follow some state of [cur] and lie in the [words]-int row of [mask]
    at [moff]; [true] iff that set is non-empty.  Allocates nothing. *)
val step :
  'a t -> int array -> mask:int array -> moff:int -> int array -> bool

(** Does the state set contain a final state? *)
val accepting : 'a t -> int array -> bool

val build : 'a Syntax.t -> 'a t

(** Determinism (= 1-unambiguity of the source expression): no state has
    two outgoing transitions on the same symbol.  Its one caller,
    [Gql_dtd.Validate.nondeterministic_models], is itself called only by
    tests. *)
val deterministic : ?equal:('a -> 'a -> bool) -> 'a t -> bool

(** Acceptance of a symbol sequence. *)
val accepts : ?equal:('a -> 'a -> bool) -> 'a t -> 'a list -> bool

