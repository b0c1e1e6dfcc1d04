(** Abstract syntax of regular expressions over an arbitrary alphabet.

    This single AST backs three distinct users in the system:
    - character-level regexes in query predicates ({!Chre});
    - regular path expressions over edge labels (GraphLog-style dashed
      edges, see [Gql_graph.Regpath]);
    - DTD content models over element names (see [Gql_dtd] and
      {!Glushkov}).

    Leaves carry an abstract symbol ['a]; how a symbol matches an input
    token is decided by the compiler that consumes the AST. *)

type 'a t =
  | Empty  (** the empty language (matches nothing) *)
  | Eps  (** the empty word *)
  | Sym of 'a  (** a single alphabet symbol *)
  | Seq of 'a t * 'a t  (** concatenation *)
  | Alt of 'a t * 'a t  (** union *)
  | Star of 'a t  (** Kleene star *)
  | Plus of 'a t  (** one or more *)
  | Opt of 'a t

val empty : 'a t

val eps : 'a t

val sym : 'a -> 'a t

val seq : 'a t -> 'a t -> 'a t

val alt : 'a t -> 'a t -> 'a t

val star : 'a t -> 'a t

val plus : 'a t -> 'a t

val opt : 'a t -> 'a t

val seq_list : 'a t list -> 'a t

val alt_list : 'a t list -> 'a t

(** [nullable r] is [true] iff the empty word belongs to the language. *)
val nullable : 'a t -> bool

(** Brzozowski derivative of [r] by one token: the language of the
    words [w] such that [tok w] is in [r], where [matches s tok] decides
    whether symbol [s] admits [tok].  A word is accepted iff the
    derivative by all its tokens is {!nullable}.  Independent of any
    automaton construction, it is the reference the automata are
    tested against. *)
val derive : ('a -> 'tok -> bool) -> 'tok -> 'a t -> 'a t

(** Symbols occurring in the expression, left to right, with duplicates. *)
val symbols : 'a t -> 'a list

(** Pretty-print with a symbol printer, fully parenthesising only where
    precedence requires it (alt < seq < postfix). *)
val to_string : ('a -> string) -> 'a t -> string
