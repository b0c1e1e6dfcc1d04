type prepared =
  | Xmlgl of Gql_xmlgl.Ast.program
  | Wglog of Gql_wglog.Ast.program
  | Match of Gql_match.Ast.query

type entry = {
  hash : string;
  lang : [ `Xmlgl | `Wglog | `Match ];
  schema : string option;
  source : string;
  prepared : prepared;
}

type t = {
  mutex : Mutex.t;
  capacity : int;
  by_hash : (string, entry) Hashtbl.t;
  fifo : string Queue.t;
  by_name : (string, string * string option) Hashtbl.t;
}

let create ?(capacity = 1024) () =
  {
    mutex = Mutex.create ();
    capacity = max 1 capacity;
    by_hash = Hashtbl.create 64;
    fifo = Queue.create ();
    by_name = Hashtbl.create 16;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let schema_of_tag = function
  | None -> Ok None
  | Some "restaurant" -> Ok (Some Gql_wglog.Schema.restaurant_schema)
  | Some "hyperdoc" -> Ok (Some Gql_wglog.Schema.hyperdoc_schema)
  | Some s -> Error (Printf.sprintf "unknown schema %S (restaurant|hyperdoc)" s)

let hash_of ~schema source =
  Digest.to_hex (Digest.string (Option.value ~default:"" schema ^ "\x00" ^ source))

let parse ~schema:tag source : (entry, string) result =
  match schema_of_tag tag with
  | Error _ as e -> e
  | Ok schema -> (
    match Gql_core.Gql.language_of_source source with
    | `Xmlgl -> (
      match Gql_core.Gql.parse_xmlgl source with
      | p ->
        Ok
          {
            hash = hash_of ~schema:tag source;
            lang = `Xmlgl;
            schema = tag;
            source;
            prepared = Xmlgl p;
          }
      | exception Gql_core.Gql.Error msg -> Error msg)
    | `Wglog -> (
      match Gql_core.Gql.parse_wglog ?schema source with
      | p ->
        Ok
          {
            hash = hash_of ~schema:tag source;
            lang = `Wglog;
            schema = tag;
            source;
            prepared = Wglog p;
          }
      | exception Gql_core.Gql.Error msg -> Error msg)
    | `Match -> (
      match Gql_core.Gql.parse_match source with
      | q ->
        Ok
          {
            hash = hash_of ~schema:tag source;
            lang = `Match;
            schema = tag;
            source;
            prepared = Match q;
          }
      | exception Gql_core.Gql.Error msg -> Error msg)
    | `Unknown ->
      Error "query source must start with 'xmlgl', 'wglog' or 'match'")

(** Insert under the lock, returning the *canonical* entry for the hash.
    A hash that is already cached (a concurrent parse of the same
    source, or a re-[PREPARE]) must NOT be pushed into [fifo] again:
    a duplicate queue slot makes the hash table look over-capacity
    later and evicts a live entry prematurely. *)
let insert t (e : entry) : entry =
  match Hashtbl.find_opt t.by_hash e.hash with
  | Some canonical -> canonical
  | None ->
    Hashtbl.replace t.by_hash e.hash e;
    Queue.push e.hash t.fifo;
    while Hashtbl.length t.by_hash > t.capacity do
      let victim = Queue.pop t.fifo in
      Hashtbl.remove t.by_hash victim
    done;
    e

let intern t ~schema source : (entry * bool, string) result =
  let hash = hash_of ~schema source in
  match locked t (fun () -> Hashtbl.find_opt t.by_hash hash) with
  | Some e -> Ok (e, true)
  | None -> (
    match parse ~schema source with
    | Error _ as err -> err
    | Ok e ->
      let e = locked t (fun () -> insert t e) in
      Ok (e, false))

let prepare t ~name ~schema source : (entry * bool, string) result =
  match intern t ~schema source with
  | Error _ as err -> err
  | Ok (e, hit) ->
    locked t (fun () -> Hashtbl.replace t.by_name name (source, schema));
    Ok (e, hit)

let find_named t name : (entry * bool, string) result =
  match locked t (fun () -> Hashtbl.find_opt t.by_name name) with
  | None -> Error (Printf.sprintf "no prepared query %S" name)
  | Some (source, schema) -> intern t ~schema source
