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

val set_est : t -> est -> unit

(** EXPLAIN-style rendering.  Annotated operators append their
    [rows=… cost=…] columns; unannotated plans render exactly as they
    did before estimates existed. *)
val to_string : t -> string

