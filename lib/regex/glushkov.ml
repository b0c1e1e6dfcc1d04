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

let n_positions t = Array.length t.syms
let sym_at t p = t.syms.(p - 1)
let first t = t.follow.(0)
let follow t q = t.follow.(q)
let last t = t.last
let nullable t = t.nullable

(* --- position bitsets ----------------------------------------------- *)

let bits = 63
let words t = t.words
let empty_set t = Array.make t.words 0
let add set p = set.(p / bits) <- set.(p / bits) lor (1 lsl (p mod bits))

let start_set t =
  let s = empty_set t in
  add s 0;
  s

(** Bitset of the positions whose symbol satisfies [f]. *)
let mask t f =
  let m = empty_set t in
  Array.iteri (fun i s -> if f s then add m (i + 1)) t.syms;
  m

(** [step t cur ~mask ~moff next] sets [next] to the positions that
    follow some state of [cur] and lie in the [words]-int row of [mask]
    at [moff]; [true] iff that set is non-empty.  Allocates nothing. *)
let step t (cur : int array) ~(mask : int array) ~moff (next : int array) =
  let w = t.words in
  Array.fill next 0 w 0;
  for i = 0 to w - 1 do
    let b = ref (Array.unsafe_get cur i) and q = ref (i * bits) in
    while !b <> 0 do
      if !b land 1 <> 0 then begin
        let row = !q * w in
        for j = 0 to w - 1 do
          Array.unsafe_set next j
            (Array.unsafe_get next j lor Array.unsafe_get t.follow_bits (row + j))
        done
      end;
      b := !b lsr 1;
      incr q
    done
  done;
  let any = ref 0 in
  for j = 0 to w - 1 do
    let v = Array.unsafe_get next j land Array.unsafe_get mask (moff + j) in
    Array.unsafe_set next j v;
    any := !any lor v
  done;
  !any <> 0

(** Does the state set contain a final state? *)
let accepting t (set : int array) =
  let hit = ref false in
  for j = 0 to t.words - 1 do
    if Array.unsafe_get set j land Array.unsafe_get t.final_bits j <> 0 then
      hit := true
  done;
  !hit

(* --- construction ---------------------------------------------------- *)

let build (re : 'a Syntax.t) : 'a t =
  let syms = Array.of_list (Syntax.symbols re) in
  let n = Array.length syms in
  let counter = ref 0 in
  let follow = Array.make (n + 1) [] in
  let link la fb =
    List.iter (fun p -> follow.(p) <- List.rev_append fb follow.(p)) la
  in
  (* (nullable, first, last), numbering leaves as Syntax.symbols does *)
  let rec go = function
    | Syntax.Empty -> (false, [], [])
    | Syntax.Eps -> (true, [], [])
    | Syntax.Sym _ ->
      incr counter;
      (false, [ !counter ], [ !counter ])
    | Syntax.Seq (a, b) ->
      let na, fa, la = go a in
      let nb, fb, lb = go b in
      link la fb;
      (na && nb, (if na then fa @ fb else fa), if nb then lb @ la else lb)
    | Syntax.Alt (a, b) ->
      let na, fa, la = go a in
      let nb, fb, lb = go b in
      (na || nb, fa @ fb, la @ lb)
    | Syntax.Star a ->
      let _, fa, la = go a in
      link la fa;
      (true, fa, la)
    | Syntax.Plus a ->
      let na, fa, la = go a in
      link la fa;
      (na, fa, la)
    | Syntax.Opt a ->
      let _, fa, la = go a in
      (true, fa, la)
  in
  let nullable, first, last = go re in
  let sorted l = Array.of_list (List.sort_uniq compare l) in
  follow.(0) <- first;
  let follow = Array.map sorted follow in
  let words = (n + 1 + bits - 1) / bits in
  let t =
    { syms; follow; last = sorted last; nullable; words;
      follow_bits = Array.make ((n + 1) * words) 0;
      final_bits = Array.make words 0 }
  in
  Array.iteri
    (fun q ps ->
      Array.iter
        (fun p ->
          let j = (q * words) + (p / bits) in
          t.follow_bits.(j) <- t.follow_bits.(j) lor (1 lsl (p mod bits)))
        ps)
    follow;
  Array.iter (add t.final_bits) t.last;
  if nullable then add t.final_bits 0;
  t

(* --- DTD content models --------------------------------------------- *)

(** Determinism (= 1-unambiguity of the source expression): no state has
    two outgoing transitions on the same symbol. *)
let deterministic ?(equal = ( = )) t =
  let rec distinct = function
    | [] -> true
    | s :: rest -> (not (List.exists (equal s) rest)) && distinct rest
  in
  Array.for_all
    (fun ps -> distinct (Array.to_list (Array.map (sym_at t) ps)))
    t.follow

(** Acceptance of a symbol sequence. *)
let accepts ?(equal = ( = )) t word =
  let rec go cur next = function
    | [] -> accepting t cur
    | sym :: rest ->
      step t cur ~mask:(mask t (fun s -> equal s sym)) ~moff:0 next
      && go next cur rest
  in
  go (start_set t) (empty_set t) word

(** First symbols that could legally start a word, for error reporting. *)
let expected_first ?(equal = ( = )) t =
  let add acc s = if List.exists (equal s) acc then acc else s :: acc in
  List.rev (Array.fold_left (fun acc p -> add acc (sym_at t p)) [] (first t))
