type snapshot = {
  name : string;
  version : int;
  key : string;
  db : Gql_core.Gql.db;
  index : Gql_data.Index.t;
  nodes : int;
  edges : int;
}

type t = {
  mutex : Mutex.t;
  table : (string, snapshot) Hashtbl.t;
  versions : (string, int) Hashtbl.t;
}

let create () =
  { mutex = Mutex.create (); table = Hashtbl.create 8; versions = Hashtbl.create 8 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The digest-reuse fast path: same name, same content key — nothing to
   do, caches stay warm.  An empty key never matches (unkeyed publishes
   always install fresh). *)
let find_keyed t name key : snapshot option =
  if key = "" then None
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.table name with
        | Some s when s.key = key -> Some s
        | Some _ | None -> None)

let install t name key (db : Gql_core.Gql.db) (index : Gql_data.Index.t) :
    snapshot =
  let nodes, edges = Gql_core.Gql.stats db in
  locked t (fun () ->
      let version = 1 + Option.value ~default:0 (Hashtbl.find_opt t.versions name) in
      Hashtbl.replace t.versions name version;
      let snap = { name; version; key; db; index; nodes; edges } in
      Hashtbl.replace t.table name snap;
      snap)

(** Index [db]'s graph and install it under [name].  With [key], an
    existing snapshot carrying the same key is returned as-is (no
    version bump, no index build). *)
let publish ?(key = "") t name (db : Gql_core.Gql.db) : snapshot =
  match find_keyed t name key with
  | Some snap -> snap
  | None -> install t name key db (Gql_data.Index.build db.Gql_core.Gql.graph)

let load_xml t ~name (xml : string) : (snapshot, string) result =
  let key = "xml-" ^ Digest.to_hex (Digest.string xml) in
  match find_keyed t name key with
  | Some snap -> Ok snap
  | None -> (
    match Gql_core.Gql.load_xml_string xml with
    | db -> Ok (publish ~key t name db)
    | exception Gql_core.Gql.Error msg -> Error msg)

let load_snapshot t ~name (path : string) : (snapshot, string) result =
  match Gql_data.Store.file_key path with
  | exception (Gql_data.Store.Invalid_snapshot _ as e) ->
    Error (Gql_data.Store.describe e)
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | key -> (
    match find_keyed t name key with
    | Some snap -> Ok snap
    | None -> (
      match Gql_data.Store.load ~path with
      | graph, index ->
        Ok (install t name key (Gql_core.Gql.of_snapshot graph index) index)
      | exception (Gql_data.Store.Invalid_snapshot _ as e) ->
        Error (Gql_data.Store.describe e)
      | exception Sys_error msg -> Error msg
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)))

let find t name : snapshot option =
  locked t (fun () -> Hashtbl.find_opt t.table name)

let fork (snap : snapshot) : Gql_data.Graph.t =
  Gql_data.Graph.copy snap.db.Gql_core.Gql.graph
