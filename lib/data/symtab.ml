type t = {
  lock : Mutex.t;
  tbl : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable len : int;
}

let create ?(size = 64) () : t =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create size;
    names = Array.make (max 1 size) "";
    len = 0;
  }

let length t = t.len

let intern (t : t) (s : string) : int =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl s with
      | Some id -> id
      | None ->
        let id = t.len in
        if id = Array.length t.names then begin
          let bigger = Array.make (2 * id) "" in
          Array.blit t.names 0 bigger 0 id;
          t.names <- bigger
        end;
        t.names.(id) <- s;
        t.len <- id + 1;
        Hashtbl.replace t.tbl s id;
        id)

let find (t : t) (s : string) : int option =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl s)

let name (t : t) (id : int) : string =
  if id < 0 || id >= t.len then invalid_arg "Symtab.name: unknown id";
  t.names.(id)

let to_array (t : t) : string array =
  Mutex.protect t.lock (fun () -> Array.sub t.names 0 t.len)

let of_names (names : string array) : t =
  let n = Array.length names in
  let tbl = Hashtbl.create (max 64 n) in
  Array.iteri (fun i s -> Hashtbl.replace tbl s i) names;
  if Hashtbl.length tbl <> n then
    invalid_arg "Symtab.of_names: duplicate entries";
  { lock = Mutex.create (); tbl; names = (if n = 0 then [| "" |] else names);
    len = n }
