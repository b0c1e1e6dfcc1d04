type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 8) ~dummy () =
  { data = Array.make (max 1 capacity) dummy; len = 0; dummy }
let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  v.data.(i) <- x

let push v x =
  if v.len = Array.length v.data then begin
    let bigger = Array.make (2 * Array.length v.data) v.dummy in
    Array.blit v.data 0 bigger 0 v.len;
    v.data <- bigger
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

let copy v = { data = Array.copy v.data; len = v.len; dummy = v.dummy }

let of_array ~(dummy : 'a) (a : 'a array) : 'a t =
  if Array.length a = 0 then create ~dummy ()
  else { data = a; len = Array.length a; dummy }

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done
