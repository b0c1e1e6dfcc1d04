open Gql_data

exception Invalid_query of string
(** A construction graph reached evaluation in a shape the static checks
    should have refused (e.g. an aggregate function applied where it
    cannot be computed).  Raised instead of [assert false] so a server
    worker answers ERROR rather than dying. *)

type context = Matching.binding list

let distinct_bindings (ctx : context) (source : int) : (int * context) list =
  (* Distinct data nodes bound to [source], in order of first occurrence,
     each with the narrowed context. *)
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun b ->
      let dn = b.(source) in
      if dn >= 0 then
        match Hashtbl.find_opt seen dn with
        | Some cell -> cell := b :: !cell
        | None ->
          let cell = ref [ b ] in
          Hashtbl.replace seen dn cell;
          order := dn :: !order)
    ctx;
  (* [!order] holds the most recent first; rev_map restores first-seen
     (match) order *)
  List.rev_map (fun dn -> (dn, List.rev !(Hashtbl.find seen dn))) !order

let distinct_values (data : Graph.t) (ctx : context) (source : int) :
    (Value.t * context) list =
  let groups : (string * (Value.t * Matching.binding list ref)) list ref =
    ref []
  in
  List.iter
    (fun b ->
      let dn = b.(source) in
      if dn >= 0 then begin
        let v = Graph.node_value data dn in
        let key = Value.to_string v in
        match List.assoc_opt key !groups with
        | Some (_, cell) -> cell := b :: !cell
        | None -> groups := !groups @ [ (key, (v, ref [ b ])) ]
      end)
    ctx;
  List.map (fun (_, (v, cell)) -> (v, List.rev !cell)) !groups

let aggregate_value (data : Graph.t) (ctx : context) fn source : Value.t option =
  let bindings = distinct_bindings ctx source in
  match fn with
  | Ast.Count -> Some (Value.int (List.length bindings))
  | Ast.Sum | Ast.Min | Ast.Max | Ast.Avg -> (
    let nums =
      List.filter_map
        (fun (dn, _) -> Value.as_number (Graph.node_value data dn))
        bindings
    in
    match nums with
    | [] -> None
    | first :: rest -> (
      match fn with
      | Ast.Sum -> Some (Value.float (List.fold_left ( +. ) first rest))
      | Ast.Min -> Some (Value.float (List.fold_left Float.min first rest))
      | Ast.Max -> Some (Value.float (List.fold_left Float.max first rest))
      | Ast.Avg ->
        Some
          (Value.float
             (List.fold_left ( +. ) first rest /. float_of_int (List.length nums)))
      | Ast.Count ->
        (* unreachable: the outer match returns Count before the numeric
           branch — but a typed error beats a fatal assert if the
           dispatch ever drifts *)
        raise (Invalid_query "count aggregate reached the numeric fold")))

type compiled_cons = {
  cons : Ast.construction;
  children : (int * Ast.cedge list) list;  (** per parent, sorted by ord *)
}

let compile (cons : Ast.construction) : compiled_cons =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Ast.cedge) ->
      let cur =
        match Hashtbl.find_opt tbl e.c_parent with Some l -> l | None -> []
      in
      Hashtbl.replace tbl e.c_parent (e :: cur))
    cons.c_edges;
  let children =
    Hashtbl.fold
      (fun p es acc ->
        (p, List.sort (fun (a : Ast.cedge) b -> compare a.c_ord b.c_ord) es)
        :: acc)
      tbl []
  in
  { cons; children }

let edges_of cc parent =
  match List.assoc_opt parent cc.children with Some l -> l | None -> []

(** The scalar value of a construction node in a context — used for
    attribute-producing edges. *)
let scalar_value data cc ctx cid : string option =
  match cc.cons.Ast.c_nodes.(cid).Ast.c_kind with
  | Ast.C_const v -> Some (Value.to_string v)
  | Ast.C_value_of source -> (
    match distinct_values data ctx source with
    | (v, _) :: _ -> Some (Value.to_string v)
    | [] -> None)
  | Ast.C_copy_of { source; _ } -> (
    match distinct_bindings ctx source with
    | (dn, _) :: _ -> Some (Graph.string_value data dn)
    | [] -> None)
  | Ast.C_aggregate { fn; source } ->
    Option.map Value.to_string (aggregate_value data ctx fn source)
  | Ast.C_elem _ | Ast.C_all _ | Ast.C_group _ | Ast.C_unnest _ -> None

let rec instantiate (data : Graph.t) (cc : compiled_cons) (ctx : context)
    (cid : int) : Gql_xml.Tree.node list =
  let open Gql_xml.Tree in
  match cc.cons.Ast.c_nodes.(cid).Ast.c_kind with
  | Ast.C_const v -> [ Text (Value.to_string v) ]
  | Ast.C_value_of source ->
    List.map (fun (v, _) -> Text (Value.to_string v)) (distinct_values data ctx source)
  | Ast.C_elem { name; per = None } ->
    let attrs, children = build_children data cc ctx cid in
    [ Element { name; attrs; children } ]
  | Ast.C_elem { name; per = Some source } ->
    List.map
      (fun (_, narrowed) ->
        let attrs, children = build_children data cc narrowed cid in
        Element { name; attrs; children })
      (distinct_bindings ctx source)
  | Ast.C_copy_of { source; deep } ->
    List.concat_map
      (fun (dn, narrowed) ->
        match Graph.kind data dn with
        | Graph.Atom v -> [ Text (Value.to_string v) ]
        | Graph.Complex label ->
          if deep then [ Element (Codec.decode data dn) ]
          else begin
            let own_attrs =
              List.map
                (fun (a, v) -> (a, Value.to_string v))
                (Graph.attributes data dn)
            in
            let extra_attrs, children = build_children data cc narrowed cid in
            [ Element { name = label; attrs = own_attrs @ extra_attrs; children } ]
          end)
      (distinct_bindings ctx source)
  | Ast.C_all source ->
    List.map
      (fun (dn, _) ->
        match Graph.kind data dn with
        | Graph.Atom v -> Text (Value.to_string v)
        | Graph.Complex _ -> Element (Codec.decode data dn))
      (distinct_bindings ctx source)
  | Ast.C_aggregate { fn; source } -> (
    match aggregate_value data ctx fn source with
    | Some v -> [ Text (Value.to_string v) ]
    | None -> [])
  | Ast.C_unnest source ->
    (* flatten: the children of each bound node, in stored order *)
    List.concat_map
      (fun (dn, _) ->
        List.map
          (fun (c, _) ->
            match Graph.kind data c with
            | Graph.Atom v -> Text (Value.to_string v)
            | Graph.Complex _ -> Element (Codec.decode data c))
          (Graph.children data dn))
      (distinct_bindings ctx source)
  | Ast.C_group { by } ->
    List.concat_map
      (fun (_, narrowed) ->
        List.concat_map
          (fun (e : Ast.cedge) -> instantiate data cc narrowed e.c_child)
          (edges_of cc cid))
      (distinct_values data ctx by)

and build_children data cc ctx cid :
    (string * string) list * Gql_xml.Tree.node list =
  List.fold_left
    (fun (attrs, children) (e : Ast.cedge) ->
      match e.Ast.c_as_attr with
      | Some aname -> (
        match scalar_value data cc ctx e.c_child with
        | Some v -> (attrs @ [ (aname, v) ], children)
        | None -> (attrs, children))
      | None -> (attrs, children @ instantiate data cc ctx e.c_child))
    ([], []) (edges_of cc cid)

let run (data : Graph.t) (cons : Ast.construction) (ctx : context) :
    Gql_xml.Tree.node list =
  let cc = compile cons in
  List.concat_map (fun root -> instantiate data cc ctx root) cons.Ast.c_roots
