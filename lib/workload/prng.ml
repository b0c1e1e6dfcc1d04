type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  let b = Int64.of_int bound in
  let range = 0x4000_0000_0000_0000L (* 2^62: keeps every value positive *) in
  let lim = Int64.sub range (Int64.rem range b) in
  let rec draw () =
    let r = Int64.shift_right_logical (next_int64 t) 2 in
    if r >= lim then draw () else Int64.to_int (Int64.rem r b)
  in
  draw ()

let float t =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let pick t arr = arr.(int t (Array.length arr))

let shuffle t arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a
