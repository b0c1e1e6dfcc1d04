open Gql_data
module Homo = Gql_graph.Homo

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Per-edge symbolic form, kept alongside the opaque Homo constraint so
   the provider can build exact index navigation for each p_edges slot. *)
type cspec =
  | Cany
  | Clabel of string
  | Cpath of Graph.edge Gql_graph.Regpath.t

type cedge = { c_spec : cspec; c_negated : bool }

type t = {
  pattern : (Graph.node_kind, Graph.edge) Homo.pattern;
  edges : cedge list;
  residuals : Gql_algebra.Planner.residual list;
  node_labels : string list array;
  ret_cols : (Ast.ret * int) list;
}

let compile_path (src : string) : Graph.edge Gql_graph.Regpath.t =
  match Gql_lang.Label_re.parse src with
  | re ->
    (* MATCH paths traverse any edge kind by name; classify the leaves
       so the frozen-snapshot engine runs on the all-edges symbol plane *)
    Gql_graph.Regpath.compile_classified ~plane_hint:Index.plane_name
      ~classify:(fun sym ->
        if sym = "*" then Gql_graph.Regpath.Lany else Gql_graph.Regpath.Lname sym)
      (fun sym (e : Graph.edge) ->
        Gql_lang.Label_re.symbol_matches sym e.Graph.name)
      re
  | exception Gql_lang.Label_re.Error msg -> fail "bad path expression: %s" msg

(* Mutable builder for one pattern (outer query or NOT EXISTS body). *)
type builder = {
  vars : (string, int) Hashtbl.t;
  mutable n : int;
  mutable labels : (int * string) list;
  mutable edges_rev : ((int * (Graph.node_kind, Graph.edge) Homo.edge_constraint * int) * cedge) list;
}

let new_builder () =
  { vars = Hashtbl.create 8; n = 0; labels = []; edges_rev = [] }

let fresh b =
  let i = b.n in
  b.n <- b.n + 1;
  i

let node_index b (n : Ast.pnode) : int =
  let i =
    match n.Ast.n_var with
    | None -> fresh b
    | Some v -> (
      match Hashtbl.find_opt b.vars v with
      | Some i -> i
      | None ->
        let i = fresh b in
        Hashtbl.add b.vars v i;
        i)
  in
  (match n.Ast.n_label with
  | Some l -> b.labels <- (i, l) :: b.labels
  | None -> ());
  i

let lower_edge b (src : int) (e : Ast.pedge) (dst : int) =
  let src, dst = match e.Ast.e_dir with Ast.Out -> (src, dst) | Ast.In -> (dst, src) in
  let cons, spec =
    match e.Ast.e_spec with
    | Ast.Any -> (Homo.Direct (fun (_ : Graph.edge) -> true), Cany)
    | Ast.Label name ->
      (Homo.Direct (fun (de : Graph.edge) -> de.Graph.name = name), Clabel name)
    | Ast.Regex re_src ->
      let rp = compile_path re_src in
      (Homo.Path rp, Cpath rp)
  in
  b.edges_rev <-
    ((src, cons, dst), { c_spec = spec; c_negated = false }) :: b.edges_rev

let add_chain b (ch : Ast.chain) =
  let rec go prev = function
    | [] -> ()
    | (e, n) :: rest ->
      let i = node_index b n in
      lower_edge b prev e i;
      go i rest
  in
  go (node_index b ch.Ast.head) ch.Ast.hops

let finish b : (Graph.node_kind, Graph.edge) Homo.pattern * string list array =
  let node_labels = Array.make b.n [] in
  List.iter
    (fun (i, l) -> node_labels.(i) <- l :: node_labels.(i))
    b.labels;
  let p_nodes =
    Array.init b.n (fun i ->
        match node_labels.(i) with
        | [] -> fun (_ : Gql_graph.Digraph.node) (_ : Graph.node_kind) -> true
        | ls ->
          (* runs per candidate row: no closure per call *)
          let rec all_equal l = function
            | [] -> true
            | x :: rest -> String.equal l x && all_equal l rest
          in
          fun _ kind ->
            (match kind with
            | Graph.Complex l -> all_equal l ls
            | Graph.Atom _ -> false))
  in
  let p_edges = List.rev_map fst b.edges_rev in
  ({ Homo.p_nodes; p_edges }, node_labels)

(* ------------------------------------------------------------------ *)

let edge_vars_of (q : Ast.query) : string list =
  List.concat_map
    (fun cl ->
      match cl with
      | Ast.Match ch | Ast.Not_exists ch ->
        List.filter_map (fun (e, _) -> e.Ast.e_var) ch.Ast.hops
      | Ast.Where _ -> [])
    q.Ast.clauses

let compile (q : Ast.query) : t =
  let edge_vars = edge_vars_of q in
  let b = new_builder () in
  (* Pass 1: the positive pattern — every MATCH chain. *)
  List.iter
    (fun cl -> match cl with Ast.Match ch -> add_chain b ch | _ -> ())
    q.Ast.clauses;
  List.iter
    (fun v ->
      if Hashtbl.mem b.vars v then
        fail "name '%s' is used for both a node and an edge" v)
    edge_vars;
  let resolve what v =
    match Hashtbl.find_opt b.vars v with
    | Some i -> i
    | None ->
      if List.mem v edge_vars then
        fail "edge variable '%s' has no value; only nodes can be used in %s" v
          what
      else fail "unknown variable '%s' in %s" v what
  in
  (* Pass 2: negations and conditions, in clause order. *)
  let residuals_rev = ref [] in
  let add_residual r = residuals_rev := r :: !residuals_rev in
  List.iter
    (fun cl ->
      match cl with
      | Ast.Match _ -> ()
      | Ast.Not_exists ch -> (
        let bound n =
          match n.Ast.n_var with
          | Some v when n.Ast.n_label = None -> Hashtbl.find_opt b.vars v
          | _ -> None
        in
        match (ch.Ast.head, ch.Ast.hops) with
        | hd, [ (e, tl) ] when bound hd <> None && bound tl <> None ->
          (* Single arc between two already-bound bare variables: an
             in-search Negated constraint, whatever the spec —
             single-arc specs negate the name test, path specs fall
             through to the residual below. *)
          let src = Option.get (bound hd) and dst = Option.get (bound tl) in
          let src, dst =
            match e.Ast.e_dir with Ast.Out -> (src, dst) | Ast.In -> (dst, src)
          in
          (match e.Ast.e_spec with
          | Ast.Any ->
            b.edges_rev <-
              ( (src, Homo.Negated (fun (_ : Graph.edge) -> true), dst),
                { c_spec = Cany; c_negated = true } )
              :: b.edges_rev
          | Ast.Label name ->
            b.edges_rev <-
              ( ( src,
                  Homo.Negated
                    (fun (de : Graph.edge) -> de.Graph.name = name),
                  dst ),
                { c_spec = Clabel name; c_negated = true } )
              :: b.edges_rev
          | Ast.Regex re_src ->
            (* No Negated-path constraint in the engine core: check the
               connection as a residual once both endpoints are bound. *)
            let rp = compile_path re_src in
            add_residual
              {
                (* residual names render MATCH-natively in EXPLAIN *)
                Gql_algebra.Planner.r_name =
                  "NOT EXISTS { " ^ Pp.chain ch ^ " }";
                r_pred =
                  (fun data emb ->
                    not
                      (Gql_graph.Regpath.connects rp (Graph.digraph data)
                         ~src:emb.(src) ~dst:emb.(dst)));
              })
        | _ ->
          (* General sub-pattern: compile it separately and re-run the
             matcher with the shared variables pre-bound. *)
          let ib = new_builder () in
          add_chain ib ch;
          let shared =
            Hashtbl.fold
              (fun v inner_i acc ->
                match Hashtbl.find_opt b.vars v with
                | Some outer_i -> (outer_i, inner_i) :: acc
                | None -> acc)
              ib.vars []
          in
          let inner_pat, _ = finish ib in
          add_residual
            {
              Gql_algebra.Planner.r_name =
                "NOT EXISTS { " ^ Pp.chain ch ^ " }";
              r_pred =
                (fun data emb ->
                  not
                    (Homo.exists
                       ~pre_bound:
                         (List.map (fun (o, i) -> (i, emb.(o))) shared)
                       inner_pat (Graph.digraph data)));
            })
      | Ast.Where conds ->
        List.iter
          (fun (c : Ast.cond) ->
            let tval = function
              | Ast.Var v ->
                let i = resolve "WHERE" v in
                fun data (emb : int array) -> Graph.node_value data emb.(i)
              | Ast.Lit v -> fun _ _ -> v
            in
            let lhs = tval c.Ast.lhs and rhs = tval c.Ast.rhs in
            let test =
              match c.Ast.op with
              | Ast.Eq -> fun n -> n = 0
              | Ast.Ne -> fun n -> n <> 0
              | Ast.Lt -> fun n -> n < 0
              | Ast.Le -> fun n -> n <= 0
              | Ast.Gt -> fun n -> n > 0
              | Ast.Ge -> fun n -> n >= 0
            in
            add_residual
              {
                Gql_algebra.Planner.r_name = "WHERE " ^ Pp.cond c;
                r_pred =
                  (fun data emb ->
                    test
                      (Value.compare_values (lhs data emb) (rhs data emb)));
              })
          conds)
    q.Ast.clauses;
  let ret_cols =
    List.map
      (fun r ->
        match r with
        | Ast.Node v | Ast.Value v -> (r, resolve "RETURN" v))
      q.Ast.returns
  in
  let pattern, node_labels = finish b in
  let edges = List.rev_map snd b.edges_rev in
  { pattern; edges; residuals = List.rev !residuals_rev; node_labels; ret_cols }

(* ------------------------------------------------------------------ *)

let provider (idx : Index.t) (c : t) :
    (Graph.node_kind, Graph.edge) Homo.provider =
  let candidates v =
    match c.node_labels.(v) with
    | [] -> None
    | l :: _ -> Some (Index.complex_with_label idx l)
  in
  let navs =
    Array.of_list
      (List.map
         (fun e ->
           match e.c_spec with
           | Clabel name -> Some (Index.nav_name idx name)
           | Cpath rp when not e.c_negated -> Some (Index.nav_path idx rp)
           | Cpath _ | Cany -> None)
         c.edges)
  in
  Index.provider ~navs idx ~candidates

let job ?(index : Index.t option) (c : t) : Gql_algebra.Planner.job =
  {
    Gql_algebra.Planner.pattern = c.pattern;
    residuals = c.residuals;
    provider = Option.map (fun idx -> provider idx c) index;
  }
