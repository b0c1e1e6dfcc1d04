open Gql_data

type binding = int array

type test = Name of string | Any | Re of Gql_regex.Chre.t

type compiled = {
  query : Ast.query;
  tests : test option array;
  pattern : (Graph.node_kind, Graph.edge) Gql_graph.Homo.pattern;
  qpos : int array;
  pat_to_query : int array;
  value_join_groups : int list list;
  absent_checks : (int * (int -> Graph.node_kind -> bool)) list;
  ordered_groups : (int * int list) list;
  cross_preds : (int * Predicate.compiled) list;
  edge_kinds : Ast.qedge_kind list;
}

let test_of (qn : Ast.qnode) : test option =
  match qn.q_kind with
  | Ast.Q_elem (Ast.Exact n) -> Some (Name n)
  | Ast.Q_elem Ast.Any_name -> Some Any
  | Ast.Q_elem (Ast.Name_re pattern) -> Some (Re (Gql_regex.Chre.compile pattern))
  | Ast.Q_content | Ast.Q_attr -> None

let name_test data test : int -> bool =
  let on_label f dn = match Graph.label data dn with Some l -> f l | None -> false in
  match test with
  | Name n -> on_label (String.equal n)
  | Any -> on_label (fun _ -> true)
  | Re re -> on_label (Gql_regex.Chre.matches re)

(* With an index in hand, a name test is an integer compare against the
   node's interned label symbol ([Index.node_sym], -1 for atoms) — one
   symbol resolution per *query*, not one string compare per candidate.
   Regex name tests memoise their verdict per label symbol, so the
   automaton runs once per distinct label ever probed (a benign write
   race under domains: every domain computes the same byte). *)
let name_test_sym (idx : Index.t) test : int -> bool =
  match test with
  | Name n ->
    let sym = Index.label_sym idx n in
    fun dn -> sym >= 0 && Index.node_sym idx dn = sym
  | Any -> fun dn -> Index.node_sym idx dn >= 0
  | Re re ->
    let n_syms = Gql_data.Symtab.length (Index.symtab idx) in
    let memo = Bytes.make (max 1 n_syms) '\000' in
    fun dn ->
      let s = Index.node_sym idx dn in
      s >= 0
      && (match Bytes.get memo s with
         | '\001' -> true
         | '\002' -> false
         | _ ->
           let ok =
             Gql_regex.Chre.matches re
               (Gql_data.Symtab.name (Index.symtab idx) s)
           in
           Bytes.set memo s (if ok then '\001' else '\002');
           ok)

(* Candidate predicate for one query node, with local predicate pushdown.
   [index] specialises the name test to interned-symbol compares; the
   accepted node set is identical either way (scan-vs-index oracle). *)
let node_predicate ?(index : Index.t option) data (test : test option)
    (qn : Ast.qnode) : int -> Graph.node_kind -> bool =
  let local =
    match qn.q_pred with
    | Some p when Predicate.is_local p ->
      let p = Predicate.compile p in
      Some (fun self -> p { Predicate.data; binding = [||] } ~self:(Some self))
    | Some _ | None -> None
  in
  match test with
  | Some test -> (
    let name_ok : int -> bool =
      match index with
      | Some idx -> name_test_sym idx test
      | None -> name_test data test
    in
    let is_complex = function Graph.Complex _ -> true | Graph.Atom _ -> false in
    match local with
    | None -> fun dn kind -> is_complex kind && name_ok dn
    | Some holds ->
      fun dn kind -> is_complex kind && name_ok dn && holds (Graph.node_value data dn))
  | None ->
    fun _ kind ->
      (match kind with
      | Graph.Atom v -> (match local with Some holds -> holds v | None -> true)
      | Graph.Complex _ -> false)

let deep_path : Graph.edge Gql_graph.Regpath.t =
  (* one or more containment steps; classified [Lany] on the child-edge
     plane, so frozen snapshots run it as pure int-compare hops *)
  Gql_graph.Regpath.compile_classified ~plane_hint:Index.plane_child
    ~classify:(fun () -> Gql_graph.Regpath.Lany)
    (fun () (e : Graph.edge) -> e.Graph.kind = Graph.Child)
    (Gql_regex.Syntax.plus (Gql_regex.Syntax.sym ()))

let edge_constraint (k : Ast.qedge_kind) :
    (Graph.node_kind, Graph.edge) Gql_graph.Homo.edge_constraint option =
  match k with
  | Ast.Contains { position; _ } ->
    Some
      (Gql_graph.Homo.Direct
         (fun e ->
           e.Graph.kind = Graph.Child
           &&
           match position with
           | None -> true
           | Some p -> e.Graph.ord = Some p))
  | Ast.Deep -> Some (Gql_graph.Homo.Path deep_path)
  | Ast.Attr_of name ->
    Some
      (Gql_graph.Homo.Direct
         (fun e -> e.Graph.kind = Graph.Attribute && e.Graph.name = name))
  | Ast.Ref_to name ->
    Some
      (Gql_graph.Homo.Direct
         (fun e ->
           (e.Graph.kind = Graph.Ref || e.Graph.kind = Graph.Rel)
           &&
           match name with
           | None -> true
           | Some n -> e.Graph.name = n))
  | Ast.Absent -> None

let compile ?(index : Index.t option) (data : Graph.t) (q : Ast.query) :
    compiled =
  let nq = Array.length q.q_nodes in
  let tests = Array.map test_of q.q_nodes in
  (* Count positive incoming edges per node to find value-join circles,
     and incident non-absent edges to find absent-only nodes. *)
  let incoming = Array.make nq 0 in
  let positive_incident = Array.make nq 0 in
  let absent_target = Array.make nq false in
  List.iter
    (fun (e : Ast.qedge) ->
      match e.q_kind_e with
      | Ast.Absent ->
        absent_target.(e.q_dst) <- true;
        positive_incident.(e.q_src) <- positive_incident.(e.q_src) + 1
      | Ast.Contains _ | Ast.Deep | Ast.Attr_of _ | Ast.Ref_to _ ->
        incoming.(e.q_dst) <- incoming.(e.q_dst) + 1;
        positive_incident.(e.q_src) <- positive_incident.(e.q_src) + 1;
        positive_incident.(e.q_dst) <- positive_incident.(e.q_dst) + 1)
    q.q_edges;
  (* Nodes referenced by any predicate must bind. *)
  let pred_referenced = Array.make nq false in
  Array.iter
    (fun (n : Ast.qnode) ->
      match n.q_pred with
      | Some p -> List.iter (fun m -> if m < nq then pred_referenced.(m) <- true) (Ast.pred_refs p)
      | None -> ())
    q.q_nodes;
  (* A node that exists ONLY as the target of Absent edges never binds:
     it is a description of what must not exist, not a variable. *)
  let excluded qid =
    absent_target.(qid) && positive_incident.(qid) = 0
    && not pred_referenced.(qid)
  in
  (* Pattern positions: kept query nodes in order, then split circles. *)
  let qpos = Array.make nq (-1) in
  let kept = ref [] in
  for qid = nq - 1 downto 0 do
    if not (excluded qid) then kept := qid :: !kept
  done;
  List.iteri (fun pos qid -> qpos.(qid) <- pos) !kept;
  let n_kept = List.length !kept in
  let splits = ref [] in
  let n_splits = ref 0 in
  let add_split qid =
    let pid = n_kept + !n_splits in
    incr n_splits;
    splits := qid :: !splits;
    pid
  in
  let join_groups : (int, int list) Hashtbl.t = Hashtbl.create 4 in
  let seen_edge_to : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let p_edges = ref [] in
  let p_kinds = ref [] in
  let absent_checks = ref [] in
  let is_circle qid =
    match q.q_nodes.(qid).q_kind with
    | Ast.Q_content | Ast.Q_attr -> true
    | Ast.Q_elem _ -> false
  in
  List.iter
    (fun (e : Ast.qedge) ->
      match edge_constraint e.q_kind_e with
      | None ->
        (* Absent edge: record the child spec for post-filtering. *)
        absent_checks :=
          (qpos.(e.q_src), node_predicate data tests.(e.q_dst) q.q_nodes.(e.q_dst))
          :: !absent_checks
      | Some c ->
        let dst =
          if is_circle e.q_dst && incoming.(e.q_dst) > 1 then begin
            (* Value join: first incoming edge targets the original node,
               later ones target split copies. *)
            if Hashtbl.mem seen_edge_to e.q_dst then begin
              let pid = add_split e.q_dst in
              let group =
                match Hashtbl.find_opt join_groups e.q_dst with
                | Some g -> g
                | None -> [ qpos.(e.q_dst) ]
              in
              Hashtbl.replace join_groups e.q_dst (pid :: group);
              pid
            end
            else begin
              Hashtbl.replace seen_edge_to e.q_dst 1;
              Hashtbl.replace join_groups e.q_dst [ qpos.(e.q_dst) ];
              qpos.(e.q_dst)
            end
          end
          else qpos.(e.q_dst)
        in
        p_edges := (qpos.(e.q_src), c, dst) :: !p_edges;
        p_kinds := e.q_kind_e :: !p_kinds)
    q.q_edges;
  let splits = List.rev !splits in
  let total = n_kept + List.length splits in
  let query_of_pid pid =
    if pid < n_kept then List.nth !kept pid else List.nth splits (pid - n_kept)
  in
  let p_nodes =
    Array.init total (fun pid ->
        let qid = query_of_pid pid in
        node_predicate ?index data tests.(qid) q.q_nodes.(qid))
  in
  let pat_to_query_arr = Array.init total query_of_pid in
  let value_join_groups =
    Hashtbl.fold
      (fun _ g acc -> if List.length g > 1 then g :: acc else acc)
      join_groups []
  in
  (* Ordered containment groups (pattern positions). *)
  let ordered_groups =
    let by_src = Hashtbl.create 4 in
    List.iter
      (fun (e : Ast.qedge) ->
        match e.q_kind_e with
        | Ast.Contains { ordered = true; _ } ->
          let cur =
            match Hashtbl.find_opt by_src e.q_src with Some l -> l | None -> []
          in
          Hashtbl.replace by_src e.q_src (qpos.(e.q_dst) :: cur)
        | Ast.Contains _ | Ast.Deep | Ast.Attr_of _ | Ast.Ref_to _ | Ast.Absent
          ->
          ())
      q.q_edges;
    Hashtbl.fold (fun src dsts acc -> (qpos.(src), List.rev dsts) :: acc) by_src []
  in
  let cross_preds =
    Array.to_list q.q_nodes
    |> List.mapi (fun qid (n : Ast.qnode) -> (qid, n.q_pred))
    |> List.filter_map (fun (qid, p) ->
           match p with
           | Some p when not (Predicate.is_local p) -> Some (qid, Predicate.compile p)
           | Some _ | None -> None)
  in
  {
    query = q;
    tests;
    pattern = { Gql_graph.Homo.p_nodes; p_edges = List.rev !p_edges };
    qpos;
    pat_to_query = pat_to_query_arr;
    value_join_groups;
    absent_checks = List.rev !absent_checks;
    ordered_groups;
    cross_preds;
    edge_kinds = List.rev !p_kinds;
  }

(* --- index-backed candidate provider --------------------------------- *)

(** Global candidates for one query node, from the index — zero-copy
    posting sets.  Supersets are sound: [Gql_graph.Homo] re-applies the
    node predicate.  Regex name tests run once per distinct label
    instead of once per node. *)
let index_candidates (idx : Index.t) (test : test option) (qn : Ast.qnode) :
    Gql_graph.Iset.t =
  match test with
  | Some (Name n) -> Index.complex_with_label idx n
  | Some Any -> Index.all_complex idx
  | Some (Re re) -> Index.complex_matching idx (Gql_regex.Chre.matches re)
  | None -> (
    match qn.q_pred with
    | Some p when Predicate.is_local p -> (
      match Predicate.equality_const p with
      | Some v -> Index.atoms_equal idx v
      | None -> Index.all_atoms idx)
    | Some _ | None -> Index.all_atoms idx)

let index_nav (idx : Index.t) (k : Ast.qedge_kind) : Gql_graph.Homo.nav option =
  match k with
  | Ast.Contains { position = None; _ } -> Some (Index.nav_child idx)
  | Ast.Contains { position = Some _; _ } ->
    (* child adjacency is a superset; the ordinal is re-checked *)
    Some (Index.nav_child_superset idx)
  | Ast.Deep -> Some (Index.nav_path idx deep_path)
  | Ast.Attr_of name -> Some (Index.nav_attr idx name)
  | Ast.Ref_to None -> Some (Index.nav_ref idx)
  | Ast.Ref_to (Some name) -> Some (Index.nav_ref_named idx name)
  | Ast.Absent -> None

let provider (idx : Index.t) (c : compiled) :
    (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider =
  let navs = Array.of_list (List.map (index_nav idx) c.edge_kinds) in
  Index.provider ~navs idx ~candidates:(fun p ->
      let qid = c.pat_to_query.(p) in
      Some (index_candidates idx c.tests.(qid) c.query.Ast.q_nodes.(qid)))

let to_query_binding (c : compiled) (emb : int array) : int array =
  Array.map (fun pos -> if pos >= 0 then emb.(pos) else -1) c.qpos

(* --- post filters --------------------------------------------------- *)

let child_ord data ~parent ~child =
  (* Position of [child] among [parent]'s Child edges; None if not a
     direct child. *)
  List.find_map
    (fun (dst, (e : Graph.edge)) ->
      if dst = child && e.Graph.kind = Graph.Child then e.Graph.ord else None)
    (Graph.out data parent)

let embedding_ok (c : compiled) (data : Graph.t) (emb : int array) : bool =
  (* value joins *)
  List.for_all
    (fun group ->
      match group with
      | [] | [ _ ] -> true
      | first :: rest ->
        let v p = Graph.node_value data emb.(p) in
        let v0 = v first in
        List.for_all (fun p -> Value.equal_values v0 (v p)) rest)
    c.value_join_groups
  && (* absent children *)
  List.for_all
    (fun (src_q, matches_spec) ->
      not
        (List.exists
           (fun (child, _) -> matches_spec child (Graph.kind data child))
           (Graph.children data emb.(src_q))))
    c.absent_checks
  && (* ordered containment *)
  List.for_all
    (fun (src_q, dst_qs) ->
      let parent = emb.(src_q) in
      let ords =
        List.map (fun dq -> child_ord data ~parent ~child:emb.(dq)) dst_qs
      in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | [ _ ] | [] -> true
      in
      List.for_all Option.is_some ords
      && increasing (List.filter_map Fun.id ords))
    c.ordered_groups
  && (* cross-node predicates *)
  let binding = to_query_binding c emb in
  List.for_all
    (fun (qid, p) ->
      let dn = binding.(qid) in
      let self = if dn >= 0 then Some (Graph.node_value data dn) else None in
      p { Predicate.data; binding } ~self)
    c.cross_preds

let run ?(index : Index.t option) ?domains (data : Graph.t) (q : Ast.query) :
    binding list =
  let c = compile ?index data q in
  let provider = Option.map (fun idx -> provider idx c) index in
  let out = ref [] in
  Gql_graph.Homo.iter_embeddings ?provider ?domains c.pattern (Graph.digraph data)
    ~emit:(fun emb ->
      if embedding_ok c data emb then out := to_query_binding c emb :: !out);
  List.rev !out
