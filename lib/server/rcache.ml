type key = {
  doc : string;
  version : int;
  qhash : string;
  kind : string;
}

type node = {
  key : key;
  value : string;
  info : string;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  mutex : Mutex.t;
  capacity : int;
  table : (key, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
}

let create ?(capacity = 256) () =
  {
    mutex = Mutex.create ();
    capacity = max 1 capacity;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key : (string * string) option =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None -> None
      | Some n ->
        unlink t n;
        push_front t n;
        Some (n.info, n.value))

let add t key ~info value =
  locked t (fun () ->
      (match Hashtbl.find_opt t.table key with
      | Some old ->
        unlink t old;
        Hashtbl.remove t.table key
      | None -> ());
      let n = { key; value; info; prev = None; next = None } in
      Hashtbl.replace t.table key n;
      push_front t n;
      while Hashtbl.length t.table > t.capacity do
        match t.tail with
        | None -> Hashtbl.reset t.table (* unreachable *)
        | Some victim ->
          unlink t victim;
          Hashtbl.remove t.table victim.key
      done)

let purge_doc t doc =
  locked t (fun () ->
      let victims =
        Hashtbl.fold
          (fun k n acc -> if k.doc = doc then n :: acc else acc)
          t.table []
      in
      List.iter
        (fun n ->
          unlink t n;
          Hashtbl.remove t.table n.key)
        victims)
