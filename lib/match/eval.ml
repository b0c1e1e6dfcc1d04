(** Evaluation routes and row rendering for [MATCH] queries.

    Routes over one compiled form: the direct homomorphism matcher
    (with or without an index provider) and the algebra executor, under
    the planner's fail-first order or a caller-given reference order.  All routes produce the
    same *bag* of embeddings; rows are rendered and then sorted
    lexicographically, so every route — and the served path, cold or
    cached — answers byte-identical text.  The [match-vs-algebra] fuzz
    oracle holds this door shut. *)

open Gql_data

(** Embeddings via {!Gql_graph.Homo.iter_embeddings}, residuals applied
    after the fact (the matcher knows nothing about WHERE). *)
let bindings ?(index : Index.t option) ?domains (data : Graph.t)
    (c : Compile.t) : int array list =
  let provider = Option.map (fun idx -> Compile.provider idx c) index in
  let acc = ref [] in
  Gql_graph.Homo.iter_embeddings ?provider ?domains c.Compile.pattern
    (Graph.digraph data) ~emit:(fun emb -> acc := Array.copy emb :: !acc);
  List.filter
    (fun emb ->
      List.for_all
        (fun r -> r.Gql_algebra.Planner.r_pred data emb)
        c.Compile.residuals)
    (List.rev !acc)

(** Embeddings via the algebra: plan with [planner] (default
    {!Gql_algebra.Planner.build}; residuals become Filter operators),
    run with {!Gql_algebra.Exec.run}. *)
let bindings_algebra
    ?(planner = fun data job -> Gql_algebra.Planner.build data job)
    ?(index : Index.t option) ?domains (data : Graph.t) (c : Compile.t) :
    int array list =
  let job = Compile.job ?index c in
  let plan = planner data job in
  Gql_algebra.Exec.run ?provider:job.Gql_algebra.Planner.provider ?domains
    data c.Compile.pattern plan

let cell (data : Graph.t) ((r, i) : Ast.ret * int) (emb : int array) : string =
  match r with
  | Ast.Node _ -> (
    match Graph.kind data emb.(i) with
    | Graph.Complex l -> l
    | Graph.Atom v -> Value.to_string v)
  | Ast.Value _ -> Value.to_string (Graph.node_value data emb.(i))

let header (c : Compile.t) : string =
  String.concat "\t" (List.map (fun (r, _) -> Pp.ret r) c.Compile.ret_cols)

(** Projected rows in canonical order: rendered, then sorted as strings
    (duplicates kept — bag semantics).  Rendering ticks
    {!Gql_graph.Deadline} per row and checks it once more before the
    sort. *)
let rows (data : Graph.t) (c : Compile.t) (embs : int array list) :
    string list =
  let rendered =
    List.map
      (fun emb ->
        Gql_graph.Deadline.tick ();
        String.concat "\t"
          (List.map (fun col -> cell data col emb) c.Compile.ret_cols))
      embs
  in
  Gql_graph.Deadline.check ();
  List.sort String.compare rendered

(** The canonical result text: header line, then sorted rows, newline
    terminated. *)
let body (data : Graph.t) (c : Compile.t) (embs : int array list) : string =
  String.concat "\n" (header c :: rows data c embs) ^ "\n"

(** A planned MATCH query: compiled form + physical plan + provider,
    ready to execute against the snapshot it was planned for.  This is
    what the server's plan cache stores — planning (estimate scans, the
    fail-first join order, EXPLAIN annotation) runs once per (query
    hash, snapshot version). *)
type prepared = {
  pr_compiled : Compile.t;
  pr_plan : Gql_algebra.Plan.t;
  pr_provider : (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider option;
}

(** Compile and plan. *)
let prepare ?(index : Index.t option) (data : Graph.t) (q : Ast.query) :
    prepared =
  let c = Compile.compile q in
  let job = Compile.job ?index c in
  {
    pr_compiled = c;
    pr_plan = Gql_algebra.Planner.build data job;
    pr_provider = job.Gql_algebra.Planner.provider;
  }

(** Execute a prepared query; returns the canonical body and row count.
    [data] must be the snapshot [prepare] planned against. *)
let run_prepared ?domains (data : Graph.t) (p : prepared) : string * int =
  let embs =
    Gql_algebra.Exec.run ?provider:p.pr_provider ?domains data
      p.pr_compiled.Compile.pattern p.pr_plan
  in
  (body data p.pr_compiled embs, List.length embs)

(** The served entry point: compile, plan (the same route `gql serve`
    uses), run through the algebra, render.  Returns the
    body and the row count. *)
let run ?(index : Index.t option) ?domains (data : Graph.t) (q : Ast.query) :
    string * int =
  run_prepared ?domains data (prepare ?index data q)

(** The plan text for a MATCH query — EXPLAIN, cost-annotated. *)
let explain ?(index : Index.t option) (data : Graph.t) (q : Ast.query) : string =
  Gql_algebra.Plan.to_string (prepare ?index data q).pr_plan
