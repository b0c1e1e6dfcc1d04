type role = Query | Construct

type cmp_op = Eq | Neq | Lt | Le | Gt | Ge

type condition =
  | Cmp of cmp_op * Gql_data.Value.t
  | Re of string

type node_kind =
  | Entity of string option
  | Value of Gql_data.Value.t option

type node = {
  n_role : role;
  n_kind : node_kind;
  n_cond : condition list;
}

type edge_mode =
  | Plain
  | Negated
  | Regex of string Gql_regex.Syntax.t
  | Collect

type edge = {
  e_src : int;
  e_dst : int;
  e_label : string;
  e_role : role;
  e_mode : edge_mode;
}

type rule = { nodes : node array; edges : edge list }

type program = { schema : Schema.t option; rules : rule list }

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

module Build = struct
  type t = { mutable ns : node list; mutable count : int; mutable es : edge list }

  let create () = { ns = []; count = 0; es = [] }

  let node b ?(role = Query) ?(cond = []) kind =
    let id = b.count in
    b.ns <- { n_role = role; n_kind = kind; n_cond = cond } :: b.ns;
    b.count <- id + 1;
    id

  let entity b ?role ?cond name = node b ?role ?cond (Entity (Some name))
  let any_entity b ?role ?cond () = node b ?role ?cond (Entity None)
  let value b ?role ?cond () = node b ?role ?cond (Value None)
  let const b ?role v = node b ?role (Value (Some v))

  let edge b ?(role = Query) ?(mode = Plain) ~label src dst =
    b.es <- { e_src = src; e_dst = dst; e_label = label; e_role = role; e_mode = mode } :: b.es

  let negated b ~label src dst = edge b ~mode:Negated ~label src dst

  let regex b re src dst = edge b ~mode:(Regex re) ~label:"" src dst

  let collect b src dst =
    edge b ~role:Construct ~mode:Collect ~label:"member" src dst

  let collect_as b ~label src dst =
    edge b ~role:Construct ~mode:Collect ~label src dst

  let derive b ~label src dst = edge b ~role:Construct ~label src dst

  let finish b : rule =
    { nodes = Array.of_list (List.rev b.ns); edges = List.rev b.es }
end

(* ------------------------------------------------------------------ *)
(* Static checks                                                       *)
(* ------------------------------------------------------------------ *)

type error = string

let query_nodes (r : rule) =
  Array.to_list (Array.mapi (fun i n -> (i, n)) r.nodes)
  |> List.filter_map (fun (i, n) -> if n.n_role = Query then Some i else None)

let construct_nodes (r : rule) =
  Array.to_list (Array.mapi (fun i n -> (i, n)) r.nodes)
  |> List.filter_map (fun (i, n) -> if n.n_role = Construct then Some i else None)

let check_rule (r : rule) : error list =
  let n = Array.length r.nodes in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun e ->
      if e.e_src < 0 || e.e_src >= n || e.e_dst < 0 || e.e_dst >= n then
        err "edge %d->%d out of range" e.e_src e.e_dst
      else begin
        (match e.e_mode, e.e_role with
        | Negated, Construct -> err "negated edge %d->%d cannot be green" e.e_src e.e_dst
        | Collect, Query -> err "collect edge %d->%d must be green" e.e_src e.e_dst
        | (Plain | Regex _ | Negated | Collect), _ -> ());
        (* A query edge may not touch a construction node: the red part
           must be evaluable before anything is derived. *)
        if e.e_role = Query then begin
          if r.nodes.(e.e_src).n_role = Construct then
            err "query edge %d->%d starts at a construction node" e.e_src e.e_dst;
          if r.nodes.(e.e_dst).n_role = Construct then
            err "query edge %d->%d ends at a construction node" e.e_src e.e_dst
        end;
        if e.e_mode = Collect && r.nodes.(e.e_dst).n_role <> Query then
          err "collect edge %d->%d must aggregate a query node" e.e_src e.e_dst
      end)
    r.edges;
  if construct_nodes r = [] && not (List.exists (fun e -> e.e_role = Construct) r.edges)
  then () (* pure goal: allowed *);
  List.rev !errs

let check_against_schema (s : Schema.t) (r : rule) : error list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  Array.iteri
    (fun i nd ->
      match nd.n_kind with
      | Entity (Some t) when not (Schema.has_entity s t) ->
        err "node %d: unknown entity type %s" i t
      | Entity _ | Value _ -> ())
    r.nodes;
  List.iter
    (fun e ->
      match e.e_mode with
      | Regex _ -> ()
      | Plain | Negated | Collect -> (
        let src_t =
          match r.nodes.(e.e_src).n_kind with
          | Entity (Some t) -> Some t
          | Entity None | Value _ -> None
        in
        let dst_is_value =
          match r.nodes.(e.e_dst).n_kind with
          | Value _ -> true
          | Entity _ -> false
        in
        match src_t with
        | None -> ()
        | Some t ->
          if dst_is_value then begin
            if not (List.mem_assoc e.e_label (Schema.slots_of s t)) then
              err "edge %s: entity %s has no such slot" e.e_label t
          end
          else
            match Schema.edge_type s e.e_label with
            | None -> err "edge %s: not a declared relation" e.e_label
            | Some et ->
              if et.Schema.et_src <> t then
                err "edge %s: source must be %s, rule has %s" e.e_label
                  et.Schema.et_src t))
    r.edges;
  List.rev !errs

let check_program (p : program) : error list =
  let base = List.concat_map check_rule p.rules in
  match p.schema with
  | None -> base
  | Some s -> base @ List.concat_map (check_against_schema s) p.rules

let stratification_warnings (p : program) : string list =
  let derived =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun e ->
            if e.e_role = Construct && e.e_mode <> Collect then Some e.e_label
            else None)
          r.edges)
      p.rules
    |> List.sort_uniq compare
  in
  let negated =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun e -> if e.e_mode = Negated then Some e.e_label else None)
          r.edges)
      p.rules
    |> List.sort_uniq compare
  in
  List.filter_map
    (fun l ->
      if List.mem l derived then
        Some (Printf.sprintf "label %s is both derived and negated: stratify the program" l)
      else None)
    negated
