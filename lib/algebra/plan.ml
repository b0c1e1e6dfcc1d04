open Gql_data

type edge_dir = Forward | Backward

type est = { est_rows : float; est_cost : float }

type t =
  | Scan of { var : int; label : string; mutable est : est option }
  | Expand of {
      input : t;
      src : int;
      dst : int;
      dir : edge_dir;
      cons : (Graph.node_kind, Graph.edge) Gql_graph.Homo.edge_constraint;
      nav : Gql_graph.Homo.nav option;
      label : string;
      mutable est : est option;
    }
  | Edge_check of {
      input : t;
      src : int;
      dst : int;
      cons : (Graph.node_kind, Graph.edge) Gql_graph.Homo.edge_constraint;
      nav : Gql_graph.Homo.nav option;
      label : string;
      mutable est : est option;
    }
  | Cross of { left : t; right : t; mutable est : est option }
  | Filter of {
      input : t;
      name : string;
      pred : Graph.t -> int array -> bool;
      mutable est : est option;
    }

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

