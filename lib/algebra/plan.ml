(** Physical query plans.

    Both visual languages compile their query parts to the same pattern
    representation ([Gql_graph.Homo.pattern]); this module gives that
    pattern an explicit *plan* — the operator tree a database engine
    would show in EXPLAIN — so that planning decisions (join order,
    predicate pushdown) become visible, testable and benchable
    (experiments E7/E9).

    A plan computes a set of bindings: arrays indexed by pattern node.
    Each operator carries an optional {!est} annotation — the planner's
    estimated output rows and cumulative cost (abstract units, see
    {!Cost}) — which EXPLAIN renders as [rows=… cost=…] columns. *)

open Gql_data

type edge_dir = Forward | Backward

(** Planner estimate for one operator: rows flowing *out* of it and the
    cumulative cost of producing them (inputs included). *)
type est = { est_rows : float; est_cost : float }

type t =
  | Scan of { var : int; label : string; mutable est : est option }
      (** all data nodes satisfying the var's node predicate; [label] is
          only for display *)
  | Expand of {
      input : t;
      src : int;  (** already bound *)
      dst : int;  (** newly bound *)
      dir : edge_dir;
      cons : (Graph.node_kind, Graph.edge) Gql_graph.Homo.edge_constraint;
      nav : Gql_graph.Homo.nav option;
          (** index navigation for this edge; the executor enumerates
              through it only when [nav_exact] (supersets would need the
              re-check [Expand] doesn't do) *)
      label : string;
      mutable est : est option;
    }
  | Edge_check of {
      input : t;
      src : int;
      dst : int;
      cons : (Graph.node_kind, Graph.edge) Gql_graph.Homo.edge_constraint;
      nav : Gql_graph.Homo.nav option;
          (** [nav_links], when present, replaces the adjacency scan *)
      label : string;
      mutable est : est option;
    }  (** both endpoints bound: filter *)
  | Cross of { left : t; right : t; mutable est : est option }
      (** disconnected components *)
  | Filter of {
      input : t;
      name : string;
      pred : Graph.t -> int array -> bool;
      mutable est : est option;
    }
      (** residual predicates: value joins, ordered content, absent
          children, cross-node comparisons *)

let rec vars = function
  | Scan { var; _ } -> [ var ]
  | Expand { input; dst; _ } -> dst :: vars input
  | Edge_check { input; _ } | Filter { input; _ } -> vars input
  | Cross { left; right; _ } -> vars left @ vars right

let set_est p e =
  match p with
  | Scan r -> r.est <- Some e
  | Expand r -> r.est <- Some e
  | Edge_check r -> r.est <- Some e
  | Cross r -> r.est <- Some e
  | Filter r -> r.est <- Some e

(* Compact deterministic number rendering for annotations: integers
   plain, small fractions with two decimals, big values in %.3g — the
   goldens under test/golden/ pin these bytes. *)
let fnum v =
  if Float.is_nan v then "nan"
  else if Float.abs v >= 1e7 then Printf.sprintf "%.3g" v
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else if Float.abs v < 10.0 then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.1f" v

let annot = function
  | None -> ""
  | Some e ->
    Printf.sprintf "  [rows=%s cost=%s]" (fnum e.est_rows) (fnum e.est_cost)

(** EXPLAIN-style rendering.  Annotated operators append their
    [rows=… cost=…] columns; unannotated plans render exactly as they
    did before estimates existed. *)
let to_string plan =
  let buf = Buffer.create 256 in
  let rec go indent p =
    let pad = String.make (2 * indent) ' ' in
    match p with
    | Scan { var; label; est } ->
      Buffer.add_string buf
        (Printf.sprintf "%sscan $%d (%s)%s\n" pad var label (annot est))
    | Expand { input; src; dst; dir; label; est; _ } ->
      Buffer.add_string buf
        (Printf.sprintf "%sexpand $%d %s $%d via %s%s\n" pad src
           (match dir with Forward -> "->" | Backward -> "<-")
           dst label (annot est));
      go (indent + 1) input
    | Edge_check { input; src; dst; label; est; _ } ->
      Buffer.add_string buf
        (Printf.sprintf "%scheck edge $%d -> $%d (%s)%s\n" pad src dst label
           (annot est));
      go (indent + 1) input
    | Cross { left; right; est } ->
      Buffer.add_string buf (Printf.sprintf "%scross%s\n" pad (annot est));
      go (indent + 1) left;
      go (indent + 1) right
    | Filter { input; name; est; _ } ->
      Buffer.add_string buf
        (Printf.sprintf "%sfilter %s%s\n" pad name (annot est));
      go (indent + 1) input
  in
  go 0 plan;
  Buffer.contents buf

(** Operator count, used as a sanity metric in tests. *)
let rec size = function
  | Scan _ -> 1
  | Expand { input; _ } | Edge_check { input; _ } | Filter { input; _ } ->
    1 + size input
  | Cross { left; right; _ } -> 1 + size left + size right

(** Does the plan contain a cartesian product anywhere?  The
    sentinel-overflow regression test asserts on this. *)
let rec has_cross = function
  | Scan _ -> false
  | Expand { input; _ } | Edge_check { input; _ } | Filter { input; _ } ->
    has_cross input
  | Cross _ -> true
