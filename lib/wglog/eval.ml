open Gql_data

type stats = {
  rounds : int;
  embeddings_found : int;
  nodes_added : int;
  edges_added : int;
}

exception Invalid_query of string
(** The program failed {!Ast.check_program} (or an ill-formed edge
    survived to compilation).  A typed error rather than
    [Invalid_argument]/[assert false] so the query service can answer
    ERROR instead of losing a worker domain. *)

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_query s)) fmt

let check_or_raise (p : Ast.program) =
  match Ast.check_program p with
  | [] -> ()
  | errs -> invalid "%s" (String.concat "; " errs)

(* Conditions are compiled once per rule-node spec ([node_pred] below),
   not once per candidate node: a regex condition used to rebuild its
   Chre automaton for every node it tested, which dominated rules that
   fall back to full rematch each fixpoint round. *)
let compile_condition (c : Ast.condition) : Value.t -> bool =
  match c with
  | Ast.Cmp (op, rhs) ->
    fun v ->
      (let cmp = Value.compare_values v rhs in
       match op with
       | Ast.Eq -> cmp = 0
       | Ast.Neq -> cmp <> 0
       | Ast.Lt -> cmp < 0
       | Ast.Le -> cmp <= 0
       | Ast.Gt -> cmp > 0
       | Ast.Ge -> cmp >= 0)
  | Ast.Re pattern ->
    let re = Gql_regex.Chre.compile pattern in
    fun v -> Gql_regex.Chre.search re (Value.to_string v)

(* --- query-part compilation ---------------------------------------- *)

(* A data edge "carries" a WG-Log label when its name matches; Attribute
   edges carry slot labels, Rel/Ref/Child edges carry relation labels.
   Attribute edges are excluded from regular paths (paths navigate
   structure, not slots). *)
let label_matches lbl (e : Graph.edge) = e.Graph.name = lbl

type neg_check = {
  nc_anchor : int;
  nc_dir : [ `Out | `In ];
  nc_label : string;
  nc_spec : Ast.node;
}

type compiled_query = {
  pattern : (Graph.node_kind, Graph.edge) Gql_graph.Homo.pattern;
  query_ids : int array;
  node_specs : Ast.node array;
  edge_names : string option list;
  has_regex : bool;
  n_pattern_edges : int;
  neg_checks : neg_check list;
  global_negs : (string * Ast.node * Ast.node) list;
}

let node_pred (nd : Ast.node) : int -> Graph.node_kind -> bool =
  match nd.Ast.n_kind with
  | Ast.Entity (Some t) ->
    fun _ kind ->
      (match kind with Graph.Complex l -> l = t | Graph.Atom _ -> false)
  | Ast.Entity None ->
    fun _ kind ->
      (match kind with Graph.Complex _ -> true | Graph.Atom _ -> false)
  | Ast.Value const ->
    let conds = List.map compile_condition nd.Ast.n_cond in
    fun _ kind ->
      (match kind with
      | Graph.Atom v ->
        (match const with
        | Some c -> Value.equal_values c v
        | None -> true)
        && List.for_all (fun cond -> cond v) conds
      | Graph.Complex _ -> false)

let compile_query (r : Ast.rule) : compiled_query =
  let n = Array.length r.Ast.nodes in
  (* A query node whose only incident query edges are Negated never
     binds: the crossed edge reads "no such neighbour exists". *)
  let pos_incident = Array.make n 0 in
  let neg_incident = Array.make n 0 in
  List.iter
    (fun (e : Ast.edge) ->
      match e.e_role, e.e_mode with
      | Ast.Query, Ast.Negated ->
        neg_incident.(e.e_src) <- neg_incident.(e.e_src) + 1;
        neg_incident.(e.e_dst) <- neg_incident.(e.e_dst) + 1
      | Ast.Query, (Ast.Plain | Ast.Regex _) ->
        pos_incident.(e.e_src) <- pos_incident.(e.e_src) + 1;
        pos_incident.(e.e_dst) <- pos_incident.(e.e_dst) + 1
      | Ast.Construct, _ ->
        (* green edges to a query node anchor it *)
        if r.Ast.nodes.(e.e_src).n_role = Ast.Query then
          pos_incident.(e.e_src) <- pos_incident.(e.e_src) + 1;
        if r.Ast.nodes.(e.e_dst).n_role = Ast.Query then
          pos_incident.(e.e_dst) <- pos_incident.(e.e_dst) + 1
      | Ast.Query, Ast.Collect -> ())
    r.Ast.edges;
  let free_neg qid =
    r.Ast.nodes.(qid).n_role = Ast.Query
    && neg_incident.(qid) > 0 && pos_incident.(qid) = 0
  in
  let qids = List.filter (fun q -> not (free_neg q)) (Ast.query_nodes r) in
  let query_ids = Array.of_list qids in
  let pos_of = Hashtbl.create 8 in
  Array.iteri (fun pos qid -> Hashtbl.replace pos_of qid pos) query_ids;
  let p_nodes = Array.map (fun qid -> node_pred r.Ast.nodes.(qid)) query_ids in
  let has_regex = ref false in
  let neg_checks = ref [] in
  let global_negs = ref [] in
  let names = ref [] in
  let p_edges =
    List.filter_map
      (fun (e : Ast.edge) ->
        if e.e_role <> Ast.Query then None
        else
          match e.e_mode with
          | Ast.Negated when free_neg e.e_src && free_neg e.e_dst ->
            global_negs :=
              (e.e_label, r.Ast.nodes.(e.e_src), r.Ast.nodes.(e.e_dst))
              :: !global_negs;
            None
          | Ast.Negated when free_neg e.e_src ->
            neg_checks :=
              { nc_anchor = e.e_dst; nc_dir = `In; nc_label = e.e_label;
                nc_spec = r.Ast.nodes.(e.e_src) }
              :: !neg_checks;
            None
          | Ast.Negated when free_neg e.e_dst ->
            neg_checks :=
              { nc_anchor = e.e_src; nc_dir = `Out; nc_label = e.e_label;
                nc_spec = r.Ast.nodes.(e.e_dst) }
              :: !neg_checks;
            None
          | _ ->
            let src = Hashtbl.find pos_of e.e_src
            and dst = Hashtbl.find pos_of e.e_dst in
            let c =
              match e.e_mode with
              | Ast.Plain ->
                names := Some e.e_label :: !names;
                Gql_graph.Homo.Direct (label_matches e.e_label)
              | Ast.Negated ->
                names := Some e.e_label :: !names;
                Gql_graph.Homo.Negated (label_matches e.e_label)
              | Ast.Regex re ->
                has_regex := true;
                names := None :: !names;
                Gql_graph.Homo.Path
                  (* classified: on a frozen snapshot the index resolves
                     each leaf against the relational (non-attribute)
                     edge plane, so hops are integer compares *)
                  (Gql_graph.Regpath.compile_classified
                     ~plane_hint:Index.plane_rel
                     ~classify:(fun lbl ->
                       if lbl = "*" then Gql_graph.Regpath.Lany
                       else Gql_graph.Regpath.Lname lbl)
                     (fun lbl (de : Graph.edge) ->
                       de.Graph.kind <> Graph.Attribute
                       && (lbl = "*" || de.Graph.name = lbl))
                     re)
              | Ast.Collect ->
                (* reachable when an unchecked rule carries a query-role
                   collect edge (e.g. goal evaluation of a hand-built
                   AST); check_rule flags it, so refuse loudly here too *)
                invalid "collect edge %d->%d must be green" e.e_src e.e_dst
            in
            Some (src, c, dst))
      r.Ast.edges
  in
  {
    pattern = { Gql_graph.Homo.p_nodes; p_edges };
    query_ids;
    node_specs = Array.map (fun qid -> r.Ast.nodes.(qid)) query_ids;
    edge_names = List.rev !names;
    has_regex = !has_regex;
    n_pattern_edges = List.length p_edges;
    neg_checks = List.rev !neg_checks;
    global_negs = List.rev !global_negs;
  }

let provider (idx : Index.t) (cq : compiled_query) :
    (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider =
  let candidates p =
    let nd = cq.node_specs.(p) in
    match nd.Ast.n_kind with
    | Ast.Entity (Some t) -> Some (Index.complex_with_label idx t)
    | Ast.Entity None -> Some (Index.all_complex idx)
    | Ast.Value (Some c) -> Some (Index.atoms_equal idx c)
    | Ast.Value None -> Some (Index.all_atoms idx)
  in
  let navs =
    Array.of_list
      (List.map2
         (fun (_, c, _) name ->
           match c, name with
           | (Gql_graph.Homo.Direct _ | Gql_graph.Homo.Negated _), Some nm ->
             Some (Index.nav_name idx nm)
           | Gql_graph.Homo.Path rp, _ -> Some (Index.nav_path idx rp)
           | _, _ -> None)
         cq.pattern.Gql_graph.Homo.p_edges cq.edge_names)
  in
  Index.provider ~navs idx ~candidates

(* Entity predicates specialised to a specific index snapshot: "is this
   node labelled t?" becomes one integer compare against the snapshot's
   interned label plane.  Value rectangles keep their precompiled
   generic predicate (conditions were compiled once in [compile_query];
   respecialising would re-build Chre automata per call).  Only valid
   while [idx] matches [data] — exactly the contract [query_embeddings]
   already has for its [?index] argument. *)
let specialised_pattern (idx : Index.t) (cq : compiled_query) :
    (Graph.node_kind, Graph.edge) Gql_graph.Homo.pattern =
  let p_nodes =
    Array.mapi
      (fun p (nd : Ast.node) ->
        match nd.Ast.n_kind with
        | Ast.Entity (Some t) ->
          let sym = Index.label_sym idx t in
          fun dn (_ : Graph.node_kind) -> sym >= 0 && Index.node_sym idx dn = sym
        | Ast.Entity None ->
          fun dn (_ : Graph.node_kind) -> Index.node_sym idx dn >= 0
        | Ast.Value _ -> cq.pattern.Gql_graph.Homo.p_nodes.(p))
      cq.node_specs
  in
  { cq.pattern with Gql_graph.Homo.p_nodes }

let global_negs_ok ?index (data : Graph.t) (cq : compiled_query) =
  List.for_all
    (fun (label, src_spec, dst_spec) ->
      let sp = node_pred src_spec and dp = node_pred dst_spec in
      match index with
      | Some idx ->
        (* one bucket probe instead of an all-edges sweep *)
        not
          (Array.exists
             (fun (src, dst) ->
               sp src (Graph.kind data src) && dp dst (Graph.kind data dst))
             (Index.edges_named idx label))
      | None ->
        let found = ref false in
        Gql_graph.Digraph.iter_edges
          (fun ~src ~dst (e : Graph.edge) ->
            if
              (not !found)
              && label_matches label e
              && sp src (Graph.kind data src)
              && dp dst (Graph.kind data dst)
            then found := true)
          (Graph.digraph data);
        not !found)
    cq.global_negs

let neg_checks_ok ?index (data : Graph.t) (cq : compiled_query)
    (full : int array) =
  List.for_all
    (fun nc ->
      let anchor = full.(nc.nc_anchor) in
      anchor < 0
      ||
      let spec = node_pred nc.nc_spec in
      let hit m = spec m (Graph.kind data m) in
      (match index with
      | Some idx ->
        let set =
          match nc.nc_dir with
          | `Out -> Index.out_named idx anchor nc.nc_label
          | `In -> Index.in_named idx anchor nc.nc_label
        in
        not (Gql_graph.Iset.fold (fun acc m -> acc || hit m) false set)
      | None ->
        not
          (List.exists
             (fun (m, (e : Graph.edge)) -> label_matches nc.nc_label e && hit m)
             (match nc.nc_dir with
             | `Out -> Graph.out data anchor
             | `In -> Graph.inn data anchor))))
    cq.neg_checks

let query_embeddings ?(pre_bound = []) ?index ?domains (data : Graph.t)
    (r : Ast.rule) (cq : compiled_query) : int array list =
  let n = Array.length r.Ast.nodes in
  if not (global_negs_ok ?index data cq) then []
  else begin
  let out = ref [] in
  let prov = Option.map (fun idx -> provider idx cq) index in
  let pattern =
    (* the same embeddings, but entity tests become integer compares
       against the snapshot's interned labels *)
    match index with
    | Some idx -> specialised_pattern idx cq
    | None -> cq.pattern
  in
  Gql_graph.Homo.iter_embeddings ~pre_bound ?provider:prov ?domains pattern
    (Graph.digraph data) ~emit:(fun emb ->
      let full = Array.make n (-1) in
      Array.iteri (fun pos qid -> full.(qid) <- emb.(pos)) cq.query_ids;
      if neg_checks_ok ?index data cq full then out := full :: !out);
  List.rev !out
  end

(* --- construction --------------------------------------------------- *)

(* The Skolem key of a construction node: bindings of the query nodes its
   instance depends on — query nodes reachable from it through green
   non-Collect edges (in either direction), hopping over other green
   nodes. *)
let determinants (r : Ast.rule) (cnode : int) : int list =
  let n = Array.length r.Ast.nodes in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Ast.edge) ->
      if e.e_role = Ast.Construct && e.e_mode <> Ast.Collect then begin
        adj.(e.e_src) <- e.e_dst :: adj.(e.e_src);
        adj.(e.e_dst) <- e.e_src :: adj.(e.e_dst)
      end)
    r.Ast.edges;
  let seen = Array.make n false in
  let dets = ref [] in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      if r.Ast.nodes.(i).n_role = Ast.Query then dets := i :: !dets
      else List.iter go adj.(i)
    end
  in
  go cnode;
  List.sort compare !dets

type skolem_table = (int * int * int list, int) Hashtbl.t
(** (rule index, construction node, determinant bindings) -> data node *)

let rel_edge_exists data ~src ~dst ~label =
  List.exists
    (fun (d, (e : Graph.edge)) ->
      d = dst && e.Graph.name = label && e.Graph.kind <> Graph.Attribute)
    (Graph.out data src)

let slot_edge_exists data ~src ~dst ~label =
  List.exists
    (fun (d, (e : Graph.edge)) ->
      d = dst && e.Graph.name = label && e.Graph.kind = Graph.Attribute)
    (Graph.out data src)

(* G-Log semantics: the green part must EXIST for every red embedding;
   creation is only the repair action.  This check attempts to satisfy
   the construction nodes with existing graph nodes (anchored search —
   candidates come from edges whose other endpoint is already resolved),
   making rule application idempotent across runs. *)
let green_part_exists (data : Graph.t) (r : Ast.rule) (emb : int array) : bool =
  let cnodes = Ast.construct_nodes r in
  if cnodes = [] then
    (* edge-only green part: existence = all green edges already there *)
    List.for_all
      (fun (e : Ast.edge) ->
        e.e_role <> Ast.Construct
        ||
        let src = emb.(e.e_src) and dst = emb.(e.e_dst) in
        let is_slot =
          match r.Ast.nodes.(e.e_dst).n_kind with
          | Ast.Value _ -> true
          | Ast.Entity _ -> false
        in
        if is_slot then slot_edge_exists data ~src ~dst ~label:e.e_label
        else rel_edge_exists data ~src ~dst ~label:e.e_label)
      r.Ast.edges
  else begin
    let green_edges =
      List.filter (fun (e : Ast.edge) -> e.e_role = Ast.Construct) r.Ast.edges
    in
    let assign = Hashtbl.create 4 in
    let resolve i =
      if r.Ast.nodes.(i).n_role = Ast.Query then Some emb.(i)
      else Hashtbl.find_opt assign i
    in
    let edge_ok (e : Ast.edge) =
      match resolve e.e_src, resolve e.e_dst with
      | Some src, Some dst ->
        let is_slot =
          match r.Ast.nodes.(e.e_dst).n_kind with
          | Ast.Value _ -> true
          | Ast.Entity _ -> false
        in
        if is_slot then slot_edge_exists data ~src ~dst ~label:e.e_label
        else rel_edge_exists data ~src ~dst ~label:e.e_label
      | _ -> true (* endpoint not yet assigned; checked later *)
    in
    let candidates c =
      (* neighbours of a resolved endpoint along some green edge of c *)
      List.fold_left
        (fun acc (e : Ast.edge) ->
          match acc with
          | Some _ -> acc
          | None ->
            if e.e_src = c then
              match resolve e.e_dst with
              | Some d ->
                Some
                  (List.filter_map
                     (fun (s, (de : Graph.edge)) ->
                       if de.Graph.name = e.e_label then Some s else None)
                     (Graph.inn data d))
              | None -> None
            else if e.e_dst = c then
              match resolve e.e_src with
              | Some s ->
                Some
                  (List.filter_map
                     (fun (d, (de : Graph.edge)) ->
                       if de.Graph.name = e.e_label then Some d else None)
                     (Graph.out data s))
              | None -> None
            else None)
        None green_edges
    in
    let rec solve pending =
      match pending with
      | [] -> List.for_all edge_ok green_edges
      | _ -> (
        (* pick an anchored pending node *)
        let anchored =
          List.find_opt (fun c -> candidates c <> None) pending
        in
        match anchored with
        | None -> false (* floating construction node: cannot verify *)
        | Some c ->
          let rest = List.filter (fun x -> x <> c) pending in
          let spec = node_pred r.Ast.nodes.(c) in
          let cands = Option.value (candidates c) ~default:[] in
          List.exists
            (fun cand ->
              if spec cand (Graph.kind data cand) then begin
                Hashtbl.replace assign c cand;
                let ok = List.for_all edge_ok green_edges && solve rest in
                if not ok then Hashtbl.remove assign c;
                ok
              end
              else false)
            (List.sort_uniq compare cands))
    in
    solve cnodes
  end

(** Apply the construction part for one embedding.  Returns the number of
    (nodes, edges) added. *)
let apply_construction (data : Graph.t) (skolems : skolem_table)
    ~(rule_idx : int) ~(gen : int) (r : Ast.rule) (emb : int array) :
    int * int =
  let nodes_added = ref 0 and edges_added = ref 0 in
  let dets = Hashtbl.create 4 in
  let det_of c =
    match Hashtbl.find_opt dets c with
    | Some d -> d
    | None ->
      let d = determinants r c in
      Hashtbl.replace dets c d;
      d
  in
  (* Resolve a rule node to a data node under this embedding, creating
     Skolemised instances for construction nodes. *)
  let resolve i =
    if r.Ast.nodes.(i).n_role = Ast.Query then emb.(i)
    else begin
      let key = (rule_idx, i, List.map (fun q -> emb.(q)) (det_of i)) in
      match Hashtbl.find_opt skolems key with
      | Some dn -> dn
      | None ->
        let dn =
          match r.Ast.nodes.(i).n_kind with
          | Ast.Entity (Some t) -> Graph.add_complex data t
          | Ast.Entity None -> Graph.add_complex data "entity"
          | Ast.Value (Some v) -> Graph.add_atom data v
          | Ast.Value None -> Graph.add_atom data (Value.string "")
        in
        incr nodes_added;
        Hashtbl.replace skolems key dn;
        dn
    end
  in
  List.iter
    (fun (e : Ast.edge) ->
      if e.e_role = Ast.Construct then begin
        let src = resolve e.e_src and dst = resolve e.e_dst in
        let is_slot =
          match r.Ast.nodes.(e.e_dst).n_kind with
          | Ast.Value _ -> true
          | Ast.Entity _ -> false
        in
        let exists =
          if is_slot then
            List.exists
              (fun (d, (de : Graph.edge)) ->
                d = dst && de.Graph.name = e.e_label
                && de.Graph.kind = Graph.Attribute)
              (Graph.out data src)
          else rel_edge_exists data ~src ~dst ~label:e.e_label
        in
        if not exists then begin
          let edge =
            if is_slot then Graph.attr_edge e.e_label
            else Graph.rel_edge ~gen e.e_label
          in
          Graph.link data ~src ~dst edge;
          incr edges_added
        end
      end)
    r.Ast.edges;
  (!nodes_added, !edges_added)

(* --- construction footprint ------------------------------------------ *)

(* Which rules can reuse a pre-loop index across fixpoint rounds?  The
   unseeded fallback (regex-path rules, rules with no pattern edge)
   rebuilt the index every round, which made E5's `root` query pay a
   full O(graph) rebuild per round.  An index built before the loop
   stays *exact* for a rule as long as nothing the program constructs
   can be visible to that rule's query part: the program adds no nodes,
   and the labels of the edges it may add are disjoint from every label
   the query consults (positive, negated, free-negation and regex-path
   alike — a `*` wildcard consults every relation label). *)

module Labels = Set.Make (String)

let regex_symbols (re : string Gql_regex.Syntax.t) : string list =
  let rec go acc = function
    | Gql_regex.Syntax.Empty | Gql_regex.Syntax.Eps -> acc
    | Gql_regex.Syntax.Sym s -> s :: acc
    | Gql_regex.Syntax.Seq (a, b) | Gql_regex.Syntax.Alt (a, b) ->
      go (go acc a) b
    | Gql_regex.Syntax.Star a | Gql_regex.Syntax.Plus a
    | Gql_regex.Syntax.Opt a ->
      go acc a
  in
  go [] re

(* (can add nodes, labels of edges the construction parts may add) *)
let construction_footprint (p : Ast.program) : bool * Labels.t =
  List.fold_left
    (fun (nodes, labels) (r : Ast.rule) ->
      let nodes = nodes || Ast.construct_nodes r <> [] in
      let labels =
        List.fold_left
          (fun acc (e : Ast.edge) ->
            if e.Ast.e_role = Ast.Construct then Labels.add e.Ast.e_label acc
            else acc)
          labels r.Ast.edges
      in
      (nodes, labels))
    (false, Labels.empty) p.Ast.rules

(* Edge labels one rule's query part examines; [`Any] if a regex path
   contains the `*` wildcard. *)
let query_footprint (r : Ast.rule) : [ `Any | `Labels of Labels.t ] =
  let exception Wildcard in
  try
    `Labels
      (List.fold_left
         (fun acc (e : Ast.edge) ->
           if e.Ast.e_role <> Ast.Query then acc
           else
             match e.Ast.e_mode with
             | Ast.Plain | Ast.Negated -> Labels.add e.Ast.e_label acc
             | Ast.Collect -> acc
             | Ast.Regex re ->
               List.fold_left
                 (fun acc s ->
                   if s = "*" then raise Wildcard else Labels.add s acc)
                 acc (regex_symbols re))
         Labels.empty r.Ast.edges)
  with Wildcard -> `Any

let stale_index_ok ~adds_nodes ~added_labels (r : Ast.rule) : bool =
  (not adds_nodes)
  &&
  match query_footprint r with
  | `Any -> Labels.is_empty added_labels
  | `Labels consulted -> Labels.is_empty (Labels.inter consulted added_labels)

(* --- fixpoint -------------------------------------------------------- *)

(* Semi-naive: for every positive Direct pattern edge, enumerate the data
   edges added in the previous round, pin the pattern edge's endpoints to
   that instance, and complete the embedding around it.  With seeded
   search the per-round cost tracks the delta instead of the database.

   One pass over the data edges serves every pattern edge at once (the
   old per-pattern-edge sweep paid O(pattern edges * data edges) per
   round); per-pattern-edge accumulators keep the seed order identical
   to the per-edge sweeps, so downstream Skolem node numbering — and
   therefore every constructed graph — is unchanged. *)
let delta_seeds (data : Graph.t) (cq : compiled_query) ~(last_gen : int) :
    (int * int) list list =
  let pats =
    List.filter_map
      (fun (src, c, dst) ->
        match c with
        | Gql_graph.Homo.Direct p -> Some (src, p, dst)
        | Gql_graph.Homo.Path _ | Gql_graph.Homo.Negated _ -> None)
      cq.pattern.Gql_graph.Homo.p_edges
  in
  match pats with
  | [] -> []
  | pats ->
    let pats = Array.of_list pats in
    let acc = Array.make (Array.length pats) [] in
    Gql_graph.Digraph.iter_edges
      (fun ~src:u ~dst:v (e : Graph.edge) ->
        if e.Graph.gen = last_gen then
          Array.iteri
            (fun i (src, p, dst) ->
              if p e then acc.(i) <- [ (src, u); (dst, v) ] :: acc.(i))
            pats)
      (Graph.digraph data);
    List.concat_map (fun seeds -> seeds) (Array.to_list acc)

(* Fixpoint bookkeeping, served as METRICS lines: graph copies taken by
   copy-on-write runs, and indexes a fixpoint built for itself (a
   caller's index is not counted). *)
let graph_copies = Atomic.make 0
let index_builds = Atomic.make 0

let stats_lines () =
  Printf.sprintf "wglog_graph_copies=%d\nwglog_index_builds=%d\n"
    (Atomic.get graph_copies) (Atomic.get index_builds)

let run ?(strategy = `Semi_naive) ?(use_index = true) ?(max_rounds = 1000)
    ?domains ?index ?(copy_on_write = false) (data : Graph.t)
    (p : Ast.program) : stats =
  check_or_raise p;
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Gql_graph.Par.default_domains ()
  in
  let compiled = List.map (fun r -> (r, compile_query r)) p.Ast.rules in
  let adds_nodes, added_labels = construction_footprint p in
  let stale_ok =
    List.map (fun (r, _) -> stale_index_ok ~adds_nodes ~added_labels r) compiled
  in
  let skolems : skolem_table = Hashtbl.create 64 in
  let data = ref data and shared = ref copy_on_write in
  let writable () =
    if !shared then begin
      data := Graph.copy !data;
      shared := false;
      Atomic.incr graph_copies
    end;
    !data
  in
  let icache = Index.cache () in
  let refresh () =
    let before = icache.Index.cached in
    let idx = Index.refresh icache !data in
    (match before with
    | Some b when b == idx -> ()
    | Some _ | None -> Atomic.incr index_builds);
    idx
  in
  let base_index =
    (* exact at round 1; still exact in later rounds for stale-ok rules *)
    if not use_index then None
    else match index with Some _ -> index | None -> Some (refresh ())
  in
  let total_emb = ref 0 and total_nodes = ref 0 and total_edges = ref 0 in
  let round = ref 0 in
  let continue_ = ref true in
  while !continue_ && !round < max_rounds do
    Gql_graph.Deadline.check ();
    incr round;
    let gen = !round in
    let added_this_round = ref 0 in
    List.iteri
      (fun rule_idx ((r, cq), stale_ok) ->
        let g = !data in
        let embeddings =
          if !round = 1 || strategy = `Naive || cq.has_regex
             || cq.n_pattern_edges = 0
          then
            let index =
              if not use_index then None
              else if !round = 1 || stale_ok then base_index
              else Some (refresh ())
            in
            query_embeddings ?index ~domains g r cq
          else begin
            (* Semi-naive: union of delta-seeded matches.  Seeds are
               completed in parallel (pure reads); the dedup below runs
               sequentially over the per-seed lists in seed order, so
               the union is the one a sequential run produces. *)
            let seeds = delta_seeds g cq ~last_gen:(gen - 1) in
            let matched =
              (* work estimate: each seed completes an embedding around
                 one pinned edge — pattern-sized backtracking, not a
                 whole-graph match — so charge a small constant per
                 pattern element per seed *)
              let cost =
                List.length seeds
                * (Array.length cq.pattern.Gql_graph.Homo.p_nodes
                  + cq.n_pattern_edges)
                * 4
              in
              Gql_graph.Par.concat_map_chunks ~cost ~domains
                (fun pre_bound -> query_embeddings ~pre_bound g r cq)
                seeds
            in
            let seen = Hashtbl.create 64 in
            List.filter
              (fun emb ->
                if Hashtbl.mem seen emb then false
                else begin
                  Hashtbl.replace seen emb ();
                  true
                end)
              matched
          end
        in
        total_emb := !total_emb + List.length embeddings;
        List.iter
          (fun emb ->
            if not (green_part_exists !data r emb) then begin
              Gql_graph.Deadline.check ();
              let nn, ne =
                apply_construction (writable ()) skolems ~rule_idx ~gen r emb
              in
              total_nodes := !total_nodes + nn;
              total_edges := !total_edges + ne;
              added_this_round := !added_this_round + nn + ne
            end)
          embeddings)
      (List.combine compiled stale_ok);
    if !added_this_round = 0 then continue_ := false
  done;
  {
    rounds = !round;
    embeddings_found = !total_emb;
    nodes_added = !total_nodes;
    edges_added = !total_edges;
  }

let goal ?index ?domains (data : Graph.t) (r : Ast.rule) : int array list =
  (match Ast.check_rule r with
  | [] -> ()
  | errs -> invalid "%s" (String.concat "; " errs));
  let cq = compile_query r in
  query_embeddings ?index ?domains data r cq
