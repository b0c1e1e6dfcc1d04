type 'a t =
  | Empty
  | Eps
  | Sym of 'a
  | Seq of 'a t * 'a t
  | Alt of 'a t * 'a t
  | Star of 'a t
  | Plus of 'a t
  | Opt of 'a t

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

let rec nullable = function
  | Empty -> false
  | Eps -> true
  | Sym _ -> false
  | Seq (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b
  | Star _ | Opt _ -> true
  | Plus r -> nullable r

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

let symbols r =
  let rec go acc = function
    | Empty | Eps -> acc
    | Sym s -> s :: acc
    | Seq (a, b) | Alt (a, b) -> go (go acc a) b
    | Star r | Plus r | Opt r -> go acc r
  in
  List.rev (go [] r)

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
