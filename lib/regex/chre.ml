type cls =
  | Any
  | Lit of char
  | Set of { ranges : (char * char) list; negated : bool }

type t = {
  pattern : string;
  case_insensitive : bool;
  auto : cls Glushkov.t;
  byte_mask : int array;
  ast : cls Syntax.t;
}

exception Parse_error of string * int
(** [Parse_error (msg, pos)] — syntax error at byte offset [pos]. *)

let fail msg pos = raise (Parse_error (msg, pos))

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over the pattern string.                  *)
(* ------------------------------------------------------------------ *)

let parse (s : string) : cls Syntax.t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c) !pos
  in
  let escape_class c =
    (* Shared by both top-level escapes and escapes inside [...] sets. *)
    match c with
    | 'd' -> Set { ranges = [ ('0', '9') ]; negated = false }
    | 'w' ->
      Set
        { ranges = [ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ];
          negated = false }
    | 's' ->
      Set
        { ranges = [ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r') ];
          negated = false }
    | 'n' -> Lit '\n'
    | 't' -> Lit '\t'
    | 'r' -> Lit '\r'
    | c -> Lit c
  in
  let parse_set () =
    (* Called after '['. *)
    let negated =
      match peek () with
      | Some '^' -> advance (); true
      | _ -> false
    in
    let ranges = ref [] in
    let rec items first =
      match peek () with
      | None -> fail "unterminated character class" !pos
      | Some ']' when not first -> advance ()
      | Some c ->
        advance ();
        let c =
          if c = '\\' then (
            match peek () with
            | None -> fail "dangling escape in class" !pos
            | Some e ->
              advance ();
              (match escape_class e with
              | Lit l -> l
              | Set { ranges = rs; negated = false } ->
                (* \d etc. inside a class: splice the ranges in. *)
                ranges := rs @ !ranges;
                (* Use a marker that adds nothing further. *)
                '\000'
              | _ -> fail "unsupported escape in class" !pos))
          else c
        in
        if c <> '\000' then begin
          match peek () with
          | Some '-' when !pos + 1 < n && s.[!pos + 1] <> ']' ->
            advance ();
            (match peek () with
            | Some hi ->
              advance ();
              if hi < c then fail "inverted range in class" !pos;
              ranges := (c, hi) :: !ranges
            | None -> fail "unterminated range" !pos)
          | _ -> ranges := (c, c) :: !ranges
        end;
        items false
    in
    items true;
    Set { ranges = List.rev !ranges; negated }
  in
  let rec parse_alt () =
    let left = parse_seq () in
    match peek () with
    | Some '|' ->
      advance ();
      Syntax.alt left (parse_alt ())
    | _ -> left
  and parse_seq () =
    let rec go acc =
      match peek () with
      | None | Some ')' | Some '|' -> acc
      | _ -> go (Syntax.seq acc (parse_postfix ()))
    in
    go Syntax.eps
  and parse_postfix () =
    let atom = parse_atom () in
    let parse_bound () =
      (* {n}, {n,}, {n,m} — desugared by expansion; bounds are capped to
         keep adversarial patterns from exploding the automaton *)
      let number () =
        let start = !pos in
        while (match peek () with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
          advance ()
        done;
        if !pos = start then None
        else Some (int_of_string (String.sub s start (!pos - start)))
      in
      let lo = number () in
      match lo with
      | None -> fail "expected a number in {}" !pos
      | Some lo ->
        if lo > 64 then fail "repetition bound too large (max 64)" !pos;
        let hi =
          match peek () with
          | Some ',' -> (
            advance ();
            match number () with
            | Some hi ->
              if hi > 64 then fail "repetition bound too large (max 64)" !pos;
              if hi < lo then fail "inverted repetition bounds" !pos;
              `Upto hi
            | None -> `Unbounded)
          | _ -> `Exactly
        in
        (match peek () with
        | Some '}' -> advance ()
        | _ -> fail "expected '}'" !pos);
        (lo, hi)
    in
    let repeat r (lo, hi) =
      let prefix = Syntax.seq_list (List.init lo (fun _ -> r)) in
      match hi with
      | `Exactly -> prefix
      | `Unbounded -> Syntax.seq prefix (Syntax.star r)
      | `Upto hi ->
        Syntax.seq prefix
          (Syntax.seq_list (List.init (hi - lo) (fun _ -> Syntax.opt r)))
    in
    let rec post r =
      match peek () with
      | Some '*' -> advance (); post (Syntax.star r)
      | Some '+' -> advance (); post (Syntax.plus r)
      | Some '?' -> advance (); post (Syntax.opt r)
      | Some '{' -> advance (); post (repeat r (parse_bound ()))
      | _ -> r
    in
    post atom
  and parse_atom () =
    match peek () with
    | None -> fail "expected atom" !pos
    | Some '(' ->
      advance ();
      let r = parse_alt () in
      expect ')';
      r
    | Some '[' ->
      advance ();
      Syntax.sym (parse_set ())
    | Some '.' ->
      advance ();
      Syntax.sym Any
    | Some '\\' ->
      advance ();
      (match peek () with
      | None -> fail "dangling escape" !pos
      | Some c ->
        advance ();
        Syntax.sym (escape_class c))
    | Some ('*' | '+' | '?') -> fail "quantifier with nothing to repeat" !pos
    | Some ')' -> fail "unbalanced ')'" !pos
    | Some c ->
      advance ();
      Syntax.sym (Lit c)
  in
  let r = parse_alt () in
  if !pos <> n then fail "trailing input" !pos;
  r

(* ------------------------------------------------------------------ *)
(* Matching.                                                           *)
(* ------------------------------------------------------------------ *)

let lower c = if c >= 'A' && c <= 'Z' then Char.chr (Char.code c + 32) else c

let cls_matches ~ci cls c =
  let c = if ci then lower c else c in
  match cls with
  | Any -> true
  | Lit l -> (if ci then lower l else l) = c
  | Set { ranges; negated } ->
    let inside =
      List.exists
        (fun (lo, hi) ->
          if ci then
            (* Case-insensitive sets: check both the raw and folded char. *)
            (c >= lower lo && c <= lower hi) || (c >= lo && c <= hi)
          else c >= lo && c <= hi)
        ranges
    in
    if negated then not inside else inside

let compile ?(case_insensitive = false) pattern =
  let ast = parse pattern in
  let auto = Glushkov.build ast in
  let w = Glushkov.words auto in
  let byte_mask = Array.make (256 * w) 0 in
  for c = 0 to 255 do
    let m = Glushkov.mask auto (fun cls -> cls_matches ~ci:case_insensitive cls (Char.chr c)) in
    Array.blit m 0 byte_mask (c * w) w
  done;
  { pattern; case_insensitive; auto; byte_mask; ast }

(* Runs the automaton over [subject] in two scratch bitsets.  With
   [floating], state 0 stays live at every byte, so a match may start
   anywhere, and the first accepting set ends the run: the language of
   [.° re .°] without a second automaton. *)
let run ~floating t subject =
  let a = t.auto and w = Glushkov.words t.auto in
  let cur = ref (Glushkov.start_set a) and next = ref (Glushkov.empty_set a) in
  let live = ref true and found = ref (floating && Glushkov.accepting a !cur) in
  let i = ref 0 in
  while !live && (not !found) && !i < String.length subject do
    let c = Char.code (String.unsafe_get subject !i) in
    live := Glushkov.step a !cur ~mask:t.byte_mask ~moff:(c * w) !next || floating;
    let s = !next in
    next := !cur;
    cur := s;
    if floating then begin
      Glushkov.add s 0;
      found := Glushkov.accepting a s
    end;
    incr i
  done;
  if floating then !found else !live && Glushkov.accepting a !cur

let matches t subject = run ~floating:false t subject
let search t subject = run ~floating:true t subject
let matches_reference t subject =
  let r = ref t.ast in
  String.iter
    (fun c -> r := Syntax.derive (cls_matches ~ci:t.case_insensitive) c !r)
    subject;
  Syntax.nullable !r
