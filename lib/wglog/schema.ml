type multiplicity = M_one_one | M_one_many | M_many_one | M_many_many

let mult_to_string = function
  | M_one_one -> "1:1"
  | M_one_many -> "1:n"
  | M_many_one -> "n:1"
  | M_many_many -> "m:n"

type edge_type = {
  et_name : string;
  et_src : string;
  et_dst : string;
  et_mult : multiplicity;
}

type t = {
  entities : string list;
  slots : (string * string * string) list;
  edge_types : edge_type list;
}

let has_entity t name = List.mem name t.entities

let edge_type t name =
  List.find_opt (fun et -> et.et_name = name) t.edge_types

let slots_of t entity =
  List.filter_map
    (fun (e, s, ty) -> if e = entity then Some (s, ty) else None)
    t.slots

type error = string

let check (t : t) : error list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun et ->
      if not (has_entity t et.et_src) then
        err "edge %s: unknown source entity %s" et.et_name et.et_src;
      if not (has_entity t et.et_dst) then
        err "edge %s: unknown destination entity %s" et.et_name et.et_dst)
    t.edge_types;
  List.iter
    (fun (e, s, _) ->
      if not (has_entity t e) then err "slot %s: unknown entity %s" s e)
    t.slots;
  List.rev !errs

let check_multiplicities (t : t) (data : Gql_data.Graph.t) : error list =
  let open Gql_data in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let count_rel edges name =
    List.length (List.filter (fun (n, _) -> n = name) edges)
  in
  List.iter
    (fun et ->
      let src_limited = et.et_mult = M_one_one || et.et_mult = M_many_one in
      let dst_limited = et.et_mult = M_one_one || et.et_mult = M_one_many in
      if src_limited || dst_limited then
        for n = 0 to Graph.n_nodes data - 1 do
          match Graph.kind data n with
          | Graph.Atom _ -> ()
          | Graph.Complex label ->
            if src_limited && label = et.et_src then begin
              let k = count_rel (Graph.rels data n) et.et_name in
              if k > 1 then
                err "%s: %d outgoing %s edges violate multiplicity %s" label k
                  et.et_name (mult_to_string et.et_mult)
            end;
            if dst_limited && label = et.et_dst then begin
              let incoming =
                List.filter
                  (fun (_, (e : Graph.edge)) ->
                    e.Graph.kind = Graph.Rel && e.Graph.name = et.et_name)
                  (Graph.inn data n)
              in
              if List.length incoming > 1 then
                err "%s: %d incoming %s edges violate multiplicity %s" label
                  (List.length incoming) et.et_name (mult_to_string et.et_mult)
            end
        done)
    t.edge_types;
  List.rev !errs

let validate (t : t) (data : Gql_data.Graph.t) : error list =
  let open Gql_data in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  for n = 0 to Graph.n_nodes data - 1 do
    match Graph.kind data n with
    | Graph.Atom _ -> ()
    | Graph.Complex label ->
      if not (has_entity t label) then err "undeclared entity type %s" label
      else begin
        List.iter
          (fun (dst, (e : Graph.edge)) ->
            match e.Graph.kind with
            | Graph.Rel -> (
              match edge_type t e.Graph.name with
              | None -> err "undeclared relation %s" e.Graph.name
              | Some et -> (
                if et.et_src <> label then
                  err "relation %s from %s (schema says %s)" e.Graph.name label
                    et.et_src;
                match Graph.label data dst with
                | Some dlabel when dlabel <> et.et_dst ->
                  err "relation %s to %s (schema says %s)" e.Graph.name dlabel
                    et.et_dst
                | Some _ | None -> ()))
            | Graph.Attribute -> (
              match List.assoc_opt e.Graph.name (slots_of t label) with
              | None -> err "undeclared slot %s of %s" e.Graph.name label
              | Some _ -> ())
            | Graph.Child | Graph.Ref -> ())
          (Graph.out data n)
      end
  done;
  List.rev !errs @ check_multiplicities t data

let restaurant_schema : t =
  {
    entities = [ "Restaurant"; "Menu"; "City"; "rest-list" ];
    slots =
      [
        ("Restaurant", "name", "string");
        ("Menu", "name", "string");
        ("Menu", "price", "float");
        ("City", "name", "string");
      ];
    edge_types =
      [
        { et_name = "offers"; et_src = "Restaurant"; et_dst = "Menu"; et_mult = M_one_many };
        { et_name = "located-in"; et_src = "Restaurant"; et_dst = "City"; et_mult = M_many_one };
        { et_name = "member"; et_src = "rest-list"; et_dst = "Restaurant"; et_mult = M_one_many };
      ];
  }

let scale_schema : t =
  {
    entities = [ "Hub"; "Item"; "Head"; "Cell"; "Group"; "Member" ];
    slots = [];
    edge_types =
      [
        { et_name = "rel"; et_src = "Hub"; et_dst = "Item"; et_mult = M_one_many };
        { et_name = "next"; et_src = "Head"; et_dst = "Cell"; et_mult = M_many_many };
        { et_name = "member"; et_src = "Group"; et_dst = "Member"; et_mult = M_one_many };
      ];
  }

let hyperdoc_schema : t =
  {
    entities = [ "Document" ];
    slots = [ ("Document", "title", "string") ];
    edge_types =
      [
        { et_name = "link"; et_src = "Document"; et_dst = "Document"; et_mult = M_many_many };
        { et_name = "index"; et_src = "Document"; et_dst = "Document"; et_mult = M_many_many };
        { et_name = "sibling"; et_src = "Document"; et_dst = "Document"; et_mult = M_many_many };
        { et_name = "root"; et_src = "Document"; et_dst = "Document"; et_mult = M_many_many };
      ];
  }
