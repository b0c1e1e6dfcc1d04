(** Character-level regular expressions.

    These are the regexes that appear in query predicates — e.g. the
    [/Van.*/] and [/[hH]olland/] patterns of the paper's running examples —
    and in GraphLog-style textual conditions.  The supported syntax is the
    classical core: literals, [.], character classes [[a-z0-9]] (with
    ranges and [^] negation), grouping, alternation [|], and the postfix
    operators [*], [+], [?].  Escaping with [\\] makes any metacharacter
    literal; [\\d], [\\w], [\\s] are provided as conveniences.

    A pattern by default must match the whole subject ({!matches});
    {!search} finds a match anywhere in the subject.  Matching simulates
    the pattern's Glushkov automaton over position bitsets (linear time,
    never backtracking, no allocation per byte). *)

type cls =
  | Any  (** [.] — any character *)
  | Lit of char
  | Set of { ranges : (char * char) list; negated : bool }

type t = {
  pattern : string;
  case_insensitive : bool;
  auto : cls Glushkov.t;
  byte_mask : int array;
      (** row [c] (at [c * words]): the positions whose class admits
          byte [c] *)
  ast : cls Syntax.t;
}

exception Parse_error of string * int

val cls_matches : ci:bool -> cls -> char -> bool

val compile : ?case_insensitive:bool -> string -> t

val matches : t -> string -> bool

val search : t -> string -> bool

(** Reference matcher (Brzozowski derivatives of the pattern's AST),
    independent of the automaton: the property tests cross-check
    {!matches} and {!search} against it on random patterns and
    subjects. *)
val matches_reference : t -> string -> bool
