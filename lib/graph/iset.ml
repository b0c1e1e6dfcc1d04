type t = int array

let empty : t = [||]
let length (s : t) = Array.length s
let is_empty (s : t) = Array.length s = 0
let get (s : t) i = s.(i)
let to_list (s : t) = Array.to_list s
let iter f (s : t) = Array.iter f s
let fold f acc (s : t) = Array.fold_left f acc s
let sub (s : t) lo len : t = Array.sub s lo len

(* Sort-and-dedup in place over a scratch copy; the common pre-sorted
   case (index postings are built sorted) costs one verification pass. *)
let rec sorted_from (a : int array) i =
  i >= Array.length a - 1 || (a.(i) < a.(i + 1) && sorted_from a (i + 1))

let dedup_sorted (a : int array) : t =
  let n = Array.length a in
  if n <= 1 then a
  else begin
    let w = ref 1 in
    for r = 1 to n - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

let of_list (l : int list) : t =
  let a = Array.of_list l in
  if sorted_from a 0 then a
  else begin
    Array.sort compare a;
    dedup_sorted a
  end

let unsafe_of_sorted_array (a : int array) : t = a

(* Smallest index in [s.[lo, hi)] holding a value >= x (hi if none) —
   the primitive under both membership and galloping. *)
let lower_bound (s : t) x lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if s.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem_range (pool : int array) ~lo ~hi x =
  if hi - lo <= 8 then begin
    let rec go i = i < hi && (pool.(i) = x || (pool.(i) < x && go (i + 1))) in
    go lo
  end
  else begin
    let lo = ref lo and hi' = ref hi in
    while !lo < !hi' do
      let mid = !lo + ((!hi' - !lo) / 2) in
      if pool.(mid) < x then lo := mid + 1 else hi' := mid
    done;
    !lo < hi && pool.(!lo) = x
  end

let mem (s : t) x =
  let n = Array.length s in
  if n <= 8 then begin
    (* adjacency slices are tiny; a scan beats binary-search setup *)
    let rec go i = i < n && (s.(i) = x || (s.(i) < x && go (i + 1))) in
    go 0
  end
  else
    let i = lower_bound s x 0 n in
    i < n && s.(i) = x

(* Both intersection paths write into a shared output buffer sized by
   the smaller input, then shrink once. *)
let inter_linear (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then empty
  else begin
    let out = Array.make (min la lb) 0 in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then incr i
      else if y < x then incr j
      else begin
        out.(!w) <- x;
        incr w;
        incr i;
        incr j
      end
    done;
    if !w = 0 then empty else Array.sub out 0 !w
  end

let inter_gallop (small : t) (large : t) : t =
  let ls = Array.length small and ll = Array.length large in
  if ls = 0 || ll = 0 then empty
  else begin
    let out = Array.make ls 0 in
    let w = ref 0 and from = ref 0 in
    for i = 0 to ls - 1 do
      let x = small.(i) in
      let j = lower_bound large x !from ll in
      from := j;
      if j < ll && large.(j) = x then begin
        out.(!w) <- x;
        incr w;
        from := j + 1
      end
    done;
    if !w = 0 then empty else Array.sub out 0 !w
  end

let gallop_factor = 16
(* gallop when the large side is >= 16x the small side: below that the
   merge's sequential reads win, above it the log-probes do (E14) *)

let inter (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let small, large, ls, ll = if la <= lb then (a, b, la, lb) else (b, a, lb, la) in
  if ls = 0 then empty
  else if ll >= ls * gallop_factor then inter_gallop small large
  else inter_linear a b

let inter_many (sets : t list) : t =
  match List.sort (fun a b -> compare (Array.length a) (Array.length b)) sets with
  | [] -> invalid_arg "Iset.inter_many: empty list"
  | first :: rest ->
    List.fold_left (fun acc s -> if is_empty acc then acc else inter acc s) first rest

let union (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      let v =
        if x < y then (incr i; x)
        else if y < x then (incr j; y)
        else (incr i; incr j; x)
      in
      out.(!w) <- v;
      incr w
    done;
    while !i < la do
      out.(!w) <- a.(!i);
      incr w;
      incr i
    done;
    while !j < lb do
      out.(!w) <- b.(!j);
      incr w;
      incr j
    done;
    if !w = la + lb then out else Array.sub out 0 !w
  end

let diff (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then (if la = 0 then empty else Array.copy a)
  else begin
    let out = Array.make la 0 in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < la do
      let x = a.(!i) in
      while !j < lb && b.(!j) < x do incr j done;
      if !j >= lb || b.(!j) <> x then begin
        out.(!w) <- x;
        incr w
      end;
      incr i
    done;
    if !w = la then out else Array.sub out 0 !w
  end

let filter (p : int -> bool) (s : t) : t =
  let n = Array.length s in
  let out = Array.make n 0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    if p s.(i) then begin
      out.(!w) <- s.(i);
      incr w
    end
  done;
  if !w = n then s else Array.sub out 0 !w
