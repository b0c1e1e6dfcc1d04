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
  | Opt of 'a t  (** zero or one *)

(* Smart constructors perform the cheap algebraic simplifications that keep
   automata small: identities of [Eps]/[Empty] and idempotence of [Star]. *)

let empty = Empty
let eps = Eps
let sym s = Sym s

let seq a b =
  match a, b with
  | Empty, _ | _, Empty -> Empty
  | Eps, r | r, Eps -> r
  | a, b -> Seq (a, b)

let alt a b =
  match a, b with
  | Empty, r | r, Empty -> r
  | a, b -> if a = b then a else Alt (a, b)

let star = function
  | Empty | Eps -> Eps
  | Star _ as r -> r
  | Plus r -> Star r
  | r -> Star r

let plus = function
  | Empty -> Empty
  | Eps -> Eps
  | Star _ as r -> r
  | r -> Plus r

let opt = function
  | Empty -> Eps
  | Eps -> Eps
  | (Star _ | Opt _) as r -> r
  | r -> Opt r

let seq_list rs = List.fold_left seq eps rs
let alt_list rs = List.fold_left alt empty rs

(** [nullable r] is [true] iff the empty word belongs to the language. *)
let rec nullable = function
  | Empty -> false
  | Eps -> true
  | Sym _ -> false
  | Seq (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b
  | Star _ | Opt _ -> true
  | Plus r -> nullable r

(** Brzozowski derivative of [r] by one token: the language of the
    words [w] such that [tok w] is in [r], where [matches s tok] decides
    whether symbol [s] admits [tok].  A word is accepted iff the
    derivative by all its tokens is {!nullable}.  Independent of any
    automaton construction, it is the reference the automata are
    tested against. *)
let rec derive (matches : 'a -> 'tok -> bool) (tok : 'tok) (r : 'a t) : 'a t =
  match r with
  | Empty | Eps -> Empty
  | Sym s -> if matches s tok then Eps else Empty
  | Seq (a, b) ->
    let da_b = seq (derive matches tok a) b in
    if nullable a then alt da_b (derive matches tok b) else da_b
  | Alt (a, b) -> alt (derive matches tok a) (derive matches tok b)
  | Star a | Plus a -> seq (derive matches tok a) (star a)
  | Opt a -> derive matches tok a

(** Number of AST nodes; used by tests and by the visual layer to bound
    diagram sizes. *)
let rec size = function
  | Empty | Eps | Sym _ -> 1
  | Seq (a, b) | Alt (a, b) -> 1 + size a + size b
  | Star r | Plus r | Opt r -> 1 + size r

(** Symbols occurring in the expression, left to right, with duplicates. *)
let symbols r =
  let rec go acc = function
    | Empty | Eps -> acc
    | Sym s -> s :: acc
    | Seq (a, b) | Alt (a, b) -> go (go acc a) b
    | Star r | Plus r | Opt r -> go acc r
  in
  List.rev (go [] r)

let map f r =
  let rec go = function
    | Empty -> Empty
    | Eps -> Eps
    | Sym s -> Sym (f s)
    | Seq (a, b) -> Seq (go a, go b)
    | Alt (a, b) -> Alt (go a, go b)
    | Star r -> Star (go r)
    | Plus r -> Plus (go r)
    | Opt r -> Opt (go r)
  in
  go r

(** Pretty-print with a symbol printer, fully parenthesising only where
    precedence requires it (alt < seq < postfix). *)
let to_string pp_sym r =
  let buf = Buffer.create 64 in
  (* prec: 0 alt, 1 seq, 2 postfix/atom *)
  let rec go prec = function
    | Empty -> Buffer.add_string buf "∅"
    | Eps -> Buffer.add_string buf "ε"
    | Sym s -> Buffer.add_string buf (pp_sym s)
    | Seq (a, b) ->
      let p () = go 1 a; Buffer.add_char buf ' '; go 1 b in
      if prec > 1 then (Buffer.add_char buf '('; p (); Buffer.add_char buf ')')
      else p ()
    | Alt (a, b) ->
      let p () = go 0 a; Buffer.add_char buf '|'; go 0 b in
      if prec > 0 then (Buffer.add_char buf '('; p (); Buffer.add_char buf ')')
      else p ()
    | Star r -> go 2 r; Buffer.add_char buf '*'
    | Plus r -> go 2 r; Buffer.add_char buf '+'
    | Opt r -> go 2 r; Buffer.add_char buf '?'
  in
  go 0 r;
  Buffer.contents buf
