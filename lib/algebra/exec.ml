(** Plan execution.

    Bindings are rows indexed by pattern variable ([-1] = unbound).
    Every operator reads and writes one flat {!batch} — a width, a row
    count and one row-major [int array] — so a result of a million rows
    is one array, not a million.  [Expand] is the workhorse: follow the
    edge constraint from the bound endpoint and test the destination's
    node predicate.  Every operator ticks {!Gql_graph.Deadline} per
    candidate or binding, so an evaluation past its deadline stops
    inside the operator that is running. *)

open Gql_data

type binding = int array

(** [rows] bindings of [width] slots, row-major: binding [i] is
    [data.(i * width) .. data.(i * width + width - 1)].  [data] may be
    longer than [rows * width]; the tail is not part of the batch. *)
type batch = { width : int; rows : int; data : int array }

(* A batch under construction: one per operator, or per Par chunk. *)
type buf = { w : int; mutable d : int array; mutable n : int }

let buf_create w ~rows = { w; d = Array.make (rows * w) 0; n = 0 }

(* Room for one more row, growing by doubling; returns its offset. *)
let buf_next b =
  let o = b.n * b.w in
  if o + b.w > Array.length b.d then begin
    let d = Array.make (max (o + b.w) (2 * Array.length b.d)) 0 in
    Array.blit b.d 0 d 0 o;
    b.d <- d
  end;
  b.n <- b.n + 1;
  o

let batch_of_buf b = { width = b.w; rows = b.n; data = b.d }

(* Bindings are a handful of slots: a loop beats the C blit. *)
let copy_row src so dst o w =
  for i = 0 to w - 1 do
    Array.unsafe_set dst (o + i) (Array.unsafe_get src (so + i))
  done

(* Per-chunk batches in chunk order, blitted into one. *)
let concat w (parts : batch list) : batch =
  match parts with
  | [ b ] -> b
  | _ ->
    let rows = List.fold_left (fun a b -> a + b.rows) 0 parts in
    let data = Array.make (rows * w) 0 in
    ignore
      (List.fold_left
         (fun o b ->
           Array.blit b.data 0 data o (b.rows * w);
           o + (b.rows * w))
         0 parts);
    { width = w; rows; data }

(** The bindings of a batch, one fresh array each. *)
let to_bindings (b : batch) : binding list =
  List.init b.rows (fun i -> Array.sub b.data (i * b.width) b.width)

(** A batch of [width]-slot bindings; each binding must hold at least
    [width] slots. *)
let of_bindings ~width (bs : binding list) : batch =
  let out = buf_create width ~rows:(List.length bs) in
  List.iter (fun b -> copy_row b 0 out.d (buf_next out) width) bs;
  batch_of_buf out

(* [nav_links] is exact by contract, so it answers the bound-pair test
   for any constraint kind without touching adjacency. *)
let edge_ok ?(nav : Gql_graph.Homo.nav option)
    (c : (Graph.node_kind, Graph.edge) Gql_graph.Homo.edge_constraint)
    (data : Graph.t) ~src ~dst =
  match nav with
  | Some { Gql_graph.Homo.nav_links = Some links; _ } -> (
    match c with
    | Gql_graph.Homo.Direct _ | Gql_graph.Homo.Path _ -> links src dst
    | Gql_graph.Homo.Negated _ -> not (links src dst))
  | Some _ | None -> (
    match c with
    | Gql_graph.Homo.Direct p ->
      List.exists (fun (d, l) -> d = dst && p l) (Graph.out data src)
    | Gql_graph.Homo.Path rp -> Gql_graph.Regpath.connects rp (Graph.digraph data) ~src ~dst
    | Gql_graph.Homo.Negated p ->
      not (List.exists (fun (d, l) -> d = dst && p l) (Graph.out data src)))

(** Run [plan] to one batch of width [|p_nodes|].  [Filter] hands its
    predicate a scratch row that is overwritten for the next binding:
    a predicate must not keep the array it is given. *)
let run_batch
    ?(provider : (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider option)
    ?domains (data : Graph.t)
    (pattern : (Graph.node_kind, Graph.edge) Gql_graph.Homo.pattern)
    (plan : Plan.t) : batch =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Gql_graph.Par.default_domains ()
  in
  let k = Array.length pattern.Gql_graph.Homo.p_nodes in
  let node_pred v n = pattern.Gql_graph.Homo.p_nodes.(v) n (Graph.kind data n) in
  (* Scan rows: [-1] everywhere but [var]. *)
  let scan var ~hint (node : int -> int) lo hi =
    let out = buf_create k ~rows:(min hint (hi - lo)) in
    for i = lo to hi - 1 do
      Gql_graph.Deadline.tick ();
      let n = node i in
      if node_pred var n then begin
        let o = buf_next out in
        Array.fill out.d o k (-1);
        out.d.(o + var) <- n
      end
    done;
    batch_of_buf out
  in
  (* The scan and expand leaves fan out over domains ({!Gql_graph.Par}):
     chunked over the candidate range / input rows, each chunk filling
     its own batch, blitted back in chunk order, so plan output is
     byte-identical to sequential execution.  Each leaf passes a work
     estimate so Par's cutoff keeps small operators sequential: a scan
     costs one predicate test per candidate, an expansion roughly an
     adjacency-filter per binding. *)
  let rec eval (p : Plan.t) : batch =
    match p with
    | Plan.Scan { var; _ } -> (
      let indexed =
        match provider with
        | Some prov -> prov.Gql_graph.Homo.prov_candidates var
        | None -> None
      in
      match indexed with
      | Some cands ->
        (* index candidates are sorted ascending, like the scan below;
           they mostly pass, so each chunk is sized for all of them *)
        let n = Gql_graph.Iset.length cands in
        Gql_graph.Par.map_chunks ~cost:n ~domains ~n
          (scan var ~hint:n (Gql_graph.Iset.get cands))
        |> concat k
      | None ->
        let n = Graph.n_nodes data in
        Gql_graph.Par.map_chunks ~cost:n ~domains ~n
          (scan var ~hint:64 Fun.id)
        |> concat k)
    | Plan.Expand { input; src; dst; dir; cons; nav; _ } ->
      let inp = eval input in
      let exact_enum =
        match nav with
        | Some n when n.Gql_graph.Homo.nav_exact -> (
          match dir with
          | Plan.Forward -> n.Gql_graph.Homo.nav_out
          | Plan.Backward -> n.Gql_graph.Homo.nav_in)
        | Some _ | None -> None
      in
      (* [cands from] are the candidates reached from [from], in order.
         An *exact* nav replaces the adjacency filter with a posting-set
         lookup; supersets are refused here because [Expand] does not
         re-check the edge constraint.  Regular-path expansion with no
         exact nav would run one product search per *binding*; resolve
         the distinct source frontier in one batched sweep up front
         (single warm scratch, each source searched once) and serve the
         per-binding expansion by lookup.  The table is built before
         the fan-out, so chunks only read. *)
      let cands : int -> int array =
        match exact_enum, cons with
        | Some enum, _ -> enum
        | None, Gql_graph.Homo.Path rp ->
          let seen = Hashtbl.create 64 in
          for r = 0 to inp.rows - 1 do
            let f = inp.data.((r * k) + src) in
            if f >= 0 && not (Hashtbl.mem seen f) then Hashtbl.replace seen f ()
          done;
          let srcs = Array.of_seq (Hashtbl.to_seq_keys seen) in
          let sets =
            match dir with
            | Plan.Forward -> Gql_graph.Regpath.reachable_batch rp (Graph.digraph data) srcs
            | Plan.Backward ->
              Gql_graph.Regpath.reachable_rev_batch rp (Graph.digraph data) srcs
          in
          let tbl = Hashtbl.create (Array.length srcs) in
          Array.iteri (fun i s -> Hashtbl.replace tbl s sets.(i)) srcs;
          Hashtbl.find tbl
        | None, Gql_graph.Homo.Direct p -> (
          let matching adj =
            Array.of_list (List.filter_map (fun (n, l) -> if p l then Some n else None) adj)
          in
          match dir with
          | Plan.Forward -> fun from -> matching (Graph.out data from)
          | Plan.Backward -> fun from -> matching (Graph.inn data from))
        | None, Gql_graph.Homo.Negated _ -> invalid_arg "cannot expand a negated edge"
      in
      (* Each row's candidates are fetched once and counted, so the
         chunk's batch is allocated once: a large result grown by
         doubling would leave as much garbage again in the major heap. *)
      let expand lo hi =
        let sets = Array.make (hi - lo) [||] and bound = ref 0 in
        for r = lo to hi - 1 do
          Gql_graph.Deadline.tick ();
          let from = inp.data.((r * k) + src) in
          if from >= 0 then begin
            let s = cands from in
            sets.(r - lo) <- s;
            bound := !bound + Array.length s
          end
        done;
        let out = buf_create k ~rows:!bound in
        for r = lo to hi - 1 do
          let base = r * k and s = sets.(r - lo) in
          for x = 0 to Array.length s - 1 do
            Gql_graph.Deadline.tick ();
            let cand = s.(x) in
            if node_pred dst cand then begin
              let o = buf_next out in
              copy_row inp.data base out.d o k;
              out.d.(o + dst) <- cand
            end
          done
        done;
        batch_of_buf out
      in
      (* one row never fans out, and is not counted as a Par call *)
      if inp.rows < 2 then expand 0 inp.rows
      else
        Gql_graph.Par.map_chunks ~cost:(inp.rows * 8) ~domains ~n:inp.rows expand
        |> concat k
    | Plan.Edge_check { input; src; dst; cons; nav; _ } ->
      keep (eval input) (fun d base ->
          edge_ok ?nav cons data ~src:d.(base + src) ~dst:d.(base + dst))
    | Plan.Cross { left; right; _ } ->
      let l = eval left and r = eval right in
      (* Sized for one left row and grown per ticked pair, not for the
         whole product: a deadline stops a product of two large scans
         while its batch is still small. *)
      let out = buf_create k ~rows:r.rows in
      for i = 0 to l.rows - 1 do
        for j = 0 to r.rows - 1 do
          Gql_graph.Deadline.tick ();
          let o = buf_next out in
          copy_row l.data (i * k) out.d o k;
          for x = 0 to k - 1 do
            let v = r.data.((j * k) + x) in
            if v >= 0 then out.d.(o + x) <- v
          done
        done
      done;
      batch_of_buf out
    | Plan.Filter { input; pred; _ } ->
      let scratch = Array.make k (-1) in
      keep (eval input) (fun d base ->
          copy_row d base scratch 0 k;
          pred data scratch)
  (* Keep the rows [ok] accepts, compacting the batch in place: every
     batch is fresh from the operator below and read once. *)
  and keep (b : batch) (ok : int array -> int -> bool) : batch =
    let d = b.data in
    let w = ref 0 in
    for r = 0 to b.rows - 1 do
      Gql_graph.Deadline.tick ();
      if ok d (r * k) then begin
        if !w <> r then copy_row d (r * k) d (!w * k) k;
        incr w
      end
    done;
    { b with rows = !w }
  in
  eval plan

(** {!run_batch} as a list of bindings, one fresh array each. *)
let run ?provider ?domains (data : Graph.t)
    (pattern : (Graph.node_kind, Graph.edge) Gql_graph.Homo.pattern)
    (plan : Plan.t) : binding list =
  to_bindings (run_batch ?provider ?domains data pattern plan)

(** End-to-end: compile an XML-GL query, plan it, execute, and return
    bindings restricted to the query's own nodes (the same shape
    [Gql_xmlgl.Matching.run] returns, so results are comparable).
    [planner] defaults to {!Planner.build}; differential tests pass a
    {!Planner.build_in_order} reference. *)
let run_xmlgl ?(planner = fun data job -> Planner.build data job) ?index
    ?domains (data : Graph.t) (q : Gql_xmlgl.Ast.query) : int array list =
  let compiled = Gql_xmlgl.Matching.compile ?index data q in
  let job = Planner.job_of_xmlgl ?index compiled in
  let plan = planner data job in
  List.map
    (Gql_xmlgl.Matching.to_query_binding compiled)
    (run ?provider:job.Planner.provider ?domains data
       compiled.Gql_xmlgl.Matching.pattern plan)

(** The plan text for an XML-GL query — EXPLAIN, annotated with the
    cost formulas' row/cost estimates. *)
let explain_xmlgl ?index (data : Graph.t) (q : Gql_xmlgl.Ast.query) : string =
  let compiled = Gql_xmlgl.Matching.compile ?index data q in
  let job = Planner.job_of_xmlgl ?index compiled in
  Plan.to_string (Planner.build data job)

(** The plan text for a WG-Log rule's query part, via the same algebra
    route (the fixpoint evaluator itself stays non-algebraic; this is
    the EXPLAIN view of how one rule's pattern would be joined). *)
let explain_wglog ?index (data : Graph.t) (r : Gql_wglog.Ast.rule) : string =
  let job = Planner.job_of_wglog ?index r in
  if Array.length job.Planner.pattern.Gql_graph.Homo.p_nodes = 0 then
    "(empty query part)\n"
  else Plan.to_string (Planner.build data job)
