type calib = {
  c_scan_indexed : float;  (** per candidate row emitted from a posting set *)
  c_scan_full : float;  (** per data node tested by an unindexed scan *)
  c_expand_direct : float;  (** per neighbour enumerated through adjacency *)
  c_expand_path : float;  (** per node reached by a regular-path expansion *)
  c_check_direct : float;  (** per input row of a direct/negated edge check *)
  c_check_path : float;  (** per input row of a regular-path edge check *)
  c_filter : float;  (** per input row of a residual filter *)
  c_cross : float;  (** per output row of a cartesian product *)
  path_hops : float;
      (** reachability cap for unsampled paths: avg degree × this *)
}

(* Fitted once from the committed bench trajectory (1-core CI host)
   and frozen since: full scan ~73 ns/node tested,
   indexed emit ~8 ns/row, direct expansion ~940 ns/neighbour and
   regular paths ~2x that at streaming (million-row) scale.  Checks,
   filters and cross are small multiples of the indexed emit; path_hops
   is the mean chain length of the deep-1M fixture.  They set EXPLAIN's
   cost column and decide no plan. *)
let default =
  {
    c_scan_indexed = 8.2;
    c_scan_full = 73.2;
    c_expand_direct = 939.8;
    c_expand_path = 2032.6;
    c_check_direct = 16.4;
    c_check_path = 2032.6;
    c_filter = 24.6;
    c_cross = 8.2;
    path_hops = 487.0;
  }

(** Default selectivity of a bound-bound edge check / residual filter.
    Deliberately coarse: it only has to keep row estimates monotone in
    the number of applied predicates. *)
let check_selectivity = 0.5

let filter_selectivity = 0.5

(* --- formulas --------------------------------------------------------- *)

let scan ~indexed ~n_nodes ~card : Plan.est =
  let rows = float_of_int (max 0 card) in
  let cost =
    if indexed then default.c_scan_indexed *. rows
    else default.c_scan_full *. float_of_int (max 1 n_nodes)
  in
  { Plan.est_rows = rows; est_cost = cost }

let expand ~path ~(input : Plan.est) ~fanout ~dst_sel : Plan.est =
  let unit =
    if path then default.c_expand_path else default.c_expand_direct
  in
  let enumerated = input.Plan.est_rows *. Float.max 0.0 fanout in
  {
    Plan.est_rows = enumerated *. Float.min 1.0 (Float.max 0.0 dst_sel);
    est_cost = input.Plan.est_cost +. (unit *. enumerated);
  }

let edge_check ~path ~(input : Plan.est) : Plan.est =
  let unit = if path then default.c_check_path else default.c_check_direct in
  {
    Plan.est_rows = input.Plan.est_rows *. check_selectivity;
    est_cost = input.Plan.est_cost +. (unit *. input.Plan.est_rows);
  }

let filter ~(input : Plan.est) : Plan.est =
  {
    Plan.est_rows = input.Plan.est_rows *. filter_selectivity;
    est_cost =
      input.Plan.est_cost +. (default.c_filter *. input.Plan.est_rows);
  }

let cross ~(left : Plan.est) ~(right : Plan.est) : Plan.est =
  let rows = left.Plan.est_rows *. right.Plan.est_rows in
  {
    Plan.est_rows = rows;
    est_cost =
      left.Plan.est_cost +. right.Plan.est_cost +. (default.c_cross *. rows);
  }

let path_fanout ~n_nodes ~avg_degree ~(depth_bound : int option) :
    float =
  let n = float_of_int (max 1 n_nodes) in
  match depth_bound with
  | Some 0 -> 1.0 (* only the empty word: the source itself *)
  | Some d ->
    let d = float_of_int (min d 32) in
    Float.min n (Float.max 1.0 (Float.max 1.0 avg_degree ** d))
  | None -> Float.min n (Float.max 1.0 avg_degree *. default.path_hops)
