type ('n, 'e) edge_constraint =
  | Direct of ('e -> bool)
  | Path of 'e Regpath.t
  | Negated of ('e -> bool)

type ('n, 'e) pattern = {
  p_nodes : (Digraph.node -> 'n -> bool) array;
  p_edges : (int * ('n, 'e) edge_constraint * int) list;
}

type embedding = int array

type nav = {
  nav_out : (Digraph.node -> Iset.t) option;
  nav_in : (Digraph.node -> Iset.t) option;
  nav_links : (Digraph.node -> Digraph.node -> bool) option;
  nav_exact : bool;
}

type ('n, 'e) provider = {
  prov_candidates : int -> Iset.t option;
  prov_degree : (Digraph.node -> int) option;
  prov_nav : int -> nav option;
}

let no_provider : ('n, 'e) provider =
  {
    prov_candidates = (fun _ -> None);
    prov_degree = None;
    prov_nav = (fun _ -> None);
  }

(* One search instance: fresh mutable state (bindings, caches) closed
   over by two operations.

   [i_plan ()] seeds the pre-bound nodes and reports the first choice
   point the search will branch on — [Some (p, candidates)] — or [None]
   when there is nothing to branch on (seeds rejected, or the pattern is
   fully pre-bound).

   [i_run ~first] performs the full backtracking enumeration; [first],
   when given, replaces the first choice point's node selection and
   candidate set.  The parallel driver plans once, splits the candidate
   set into contiguous {!Iset.sub} slices, and gives each slice to a
   fresh instance via [~first]: everything past the first choice point
   is per-instance state, so the per-chunk outputs concatenated in chunk
   order are exactly the sequential enumeration.  The data graph,
   pattern and provider are shared across instances and must not be
   mutated while a search runs. *)
type run_ops = {
  i_plan : unit -> (int * Iset.t * int) option;
  i_run : first:(int * Iset.t * int) option -> unit;
}

(* Read-only compiled form of a pattern + provider, built once per
   search and shared by every instance — the parallel driver used to
   rebuild the edge array, navs and adjacency lists *per chunk*, and
   each chunk recomputed every memoised global candidate set from
   scratch (E13's 30% minor-word inflation at 2+ domains).  [s_cands]
   is the global-candidate memo: the probe instance fills it in place
   while planning; chunk instances take an [Array.copy], so any set a
   chunk still computes lazily stays domain-local.

   The copy is sound because the probe already computed every set the
   chunks will need: [next_node] scores *all* unbound unconnected nodes
   by their global candidate count, so during [i_plan] each node that
   could ever fall back to a global set has had it memoised. *)
type ('n, 'e) shared = {
  s_edges : (int * ('n, 'e) edge_constraint * int) array;
  s_navs : nav option array;
  s_adj : int list array;
  s_cands : Iset.t option array;
}

let make_shared ~(provider : ('n, 'e) provider) (pat : ('n, 'e) pattern) :
    ('n, 'e) shared =
  let k = Array.length pat.p_nodes in
  let s_edges = Array.of_list pat.p_edges in
  let s_navs = Array.init (Array.length s_edges) provider.prov_nav in
  (* Positive adjacency between pattern nodes, for connectivity-guided
     ordering; negated edges do not guide the order (they only filter). *)
  let s_adj = Array.make k [] in
  List.iter
    (fun (a, c, b) ->
      match c with
      | Direct _ | Path _ ->
        s_adj.(a) <- b :: s_adj.(a);
        s_adj.(b) <- a :: s_adj.(b)
      | Negated _ -> ())
    pat.p_edges;
  { s_edges; s_navs; s_adj; s_cands = Array.make k None }

let instance ~(shared : ('n, 'e) shared) ~(copy_cands : bool)
    ~(pre_bound : (int * int) list) ~(provider : ('n, 'e) provider)
    (pat : ('n, 'e) pattern) (g : ('n, 'e) Digraph.t)
    ~(emit : embedding -> unit) : run_ops =
  let k = Array.length pat.p_nodes in
  begin
    let binding = Array.make k (-1) in
    let bound = Array.make k false in
    let p_edges = shared.s_edges in
    let navs = shared.s_navs in
    (* Lazy global candidate sets: from the provider's index when it has
       one (filtered through the node predicate, so supersets are safe),
       from a whole-graph scan otherwise.  Both paths yield a sorted
       ascending set, so indexed and scan-based searches enumerate in
       the same order. *)
    let cand_cache : Iset.t option array =
      if copy_cands then Array.copy shared.s_cands else shared.s_cands
    in
    let global_candidates p =
      match cand_cache.(p) with
      | Some c -> c
      | None ->
        let c =
          match provider.prov_candidates p with
          | Some s ->
            Iset.filter
              (fun i ->
                Deadline.tick ();
                pat.p_nodes.(p) i (Digraph.payload g i))
              s
          | None ->
            Iset.unsafe_of_sorted_array
              (Array.of_list
                 (List.rev
                    (Digraph.fold_nodes
                       (fun acc i payload ->
                         Deadline.tick ();
                         if pat.p_nodes.(p) i payload then i :: acc else acc)
                       [] g)))
        in
        cand_cache.(p) <- Some c;
        c
    in
    (* O(1) from a frozen view when provided, O(degree) otherwise. *)
    let total_degree n =
      match provider.prov_degree with
      | Some deg -> deg n
      | None -> Digraph.out_degree g n + Digraph.in_degree g n
    in
    let adj = shared.s_adj in
    (* Check every constraint whose endpoints are both bound and that
       involves pattern node [just_bound].  [nav_links] is the exact
       index-backed replacement for the adjacency scan. *)
    let direct_ok i p na nb =
      match navs.(i) with
      | Some { nav_links = Some links; _ } -> links na nb
      | Some _ | None ->
        List.exists (fun (d, l) -> d = nb && p l) (Digraph.succ g na)
    in
    let edge_holds i (c : ('n, 'e) edge_constraint) na nb =
      match c with
      | Direct p -> direct_ok i p na nb
      | Path rp -> (
        match navs.(i) with
        | Some { nav_links = Some links; _ } -> links na nb
        | Some _ | None -> Regpath.connects rp g ~src:na ~dst:nb)
      | Negated p -> not (direct_ok i p na nb)
    in
    (* [skip] is a bitmask of p_edges positions whose constraint is
       already guaranteed by the candidate set [just_bound] was drawn
       from ({!candidates_for} below) — those are not re-checked. *)
    let edges_ok ?(skip = 0) just_bound =
      let ok = ref true in
      Array.iteri
        (fun i (a, c, b) ->
          if
            !ok
            && not (i < 62 && (skip lsr i) land 1 = 1)
            && (a = just_bound || b = just_bound)
            && bound.(a) && bound.(b)
            && not (edge_holds i c binding.(a) binding.(b))
          then ok := false)
        p_edges;
      !ok
    in
    (* Fail-first ordering with cheap scores: a node adjacent to the
       bound region is scored by that neighbour's degree (its candidates
       will come from adjacency); an unconnected node costs a global
       scan, memoised — and O(1) thereafter. *)
    let next_node () =
      let best = ref (-1) in
      let best_score = ref max_int in
      for p = 0 to k - 1 do
        if not bound.(p) then begin
          let neighbour_degree =
            List.fold_left
              (fun acc q ->
                if bound.(q) then min acc (total_degree binding.(q)) else acc)
              max_int adj.(p)
          in
          let score =
            if neighbour_degree < max_int then neighbour_degree
            else 1_000_000 + Iset.length (global_candidates p)
          in
          if score < !best_score then begin
            best_score := score;
            best := p
          end
        end
      done;
      !best
    in
    (* Candidates for [p], plus the bitmask of p_edges positions the
       returned set already guarantees (so {!edges_ok} can skip them).

       Every positive edge between p and an already-bound node
       contributes a sorted set of endpoints reachable along that edge
       (index navigation when available, adjacency otherwise); the sets
       are intersected smallest-first.  Each set is a superset of that
       edge's true matches, so the intersection drops only bindings
       [edges_ok] would reject — the surviving candidates and their
       ascending order are exactly the sequential scan's.  A
       contributing edge whose set was *exact* (a scan filter, exact
       reachability, or a [nav_exact] nav) is recorded in the mask.

       Negated edges between p and a bound node are propagated as
       *exclusions*: the exact set of adjacent nodes matching the
       negated label predicate is subtracted ({!Iset.diff}).  Exclusion
       needs the exact set — a superset would drop valid candidates —
       so a non-exact nav falls back to the adjacency scan, which is
       exact by construction.

       With no bound incident edge, fall back to the global set.  The
       node predicate is re-checked on propagated candidates. *)
    let candidates_for p =
      let nav_field i get =
        match navs.(i) with Some nav -> get nav | None -> None
      in
      let exact_nav_field i get =
        match navs.(i) with
        | Some nav when nav.nav_exact -> get nav
        | Some _ | None -> None
      in
      let sets = ref [] and excl = ref [] and sat = ref 0 in
      let mark i = if i < 62 then sat := !sat lor (1 lsl i) in
      Array.iteri
        (fun i (a, c, b) ->
          match c with
          | Negated f ->
            if a <> p && b = p && bound.(a) then begin
              excl :=
                (match exact_nav_field i (fun nav -> nav.nav_out) with
                | Some out -> out binding.(a)
                | None ->
                  Iset.of_list
                    (List.filter_map
                       (fun (d, l) -> if f l then Some d else None)
                       (Digraph.succ g binding.(a))))
                :: !excl;
              mark i
            end
            else if a = p && b <> p && bound.(b) then begin
              excl :=
                (match exact_nav_field i (fun nav -> nav.nav_in) with
                | Some inn -> inn binding.(b)
                | None ->
                  Iset.of_list
                    (List.filter_map
                       (fun (s, l) -> if f l then Some s else None)
                       (Digraph.pred g binding.(b))))
                :: !excl;
              mark i
            end
          | Direct f ->
            if a <> p && b = p && bound.(a) then begin
              sets :=
                (match nav_field i (fun nav -> nav.nav_out) with
                | Some out ->
                  if (Option.get navs.(i)).nav_exact then mark i;
                  out binding.(a)
                | None ->
                  mark i;
                  Iset.of_list
                    (List.filter_map
                       (fun (d, l) -> if f l then Some d else None)
                       (Digraph.succ g binding.(a))))
                :: !sets
            end
            else if a = p && b <> p && bound.(b) then begin
              sets :=
                (match nav_field i (fun nav -> nav.nav_in) with
                | Some inn ->
                  if (Option.get navs.(i)).nav_exact then mark i;
                  inn binding.(b)
                | None ->
                  mark i;
                  Iset.of_list
                    (List.filter_map
                       (fun (s, l) -> if f l then Some s else None)
                       (Digraph.pred g binding.(b))))
                :: !sets
            end
          | Path rp ->
            if a <> p && b = p && bound.(a) then
              sets :=
                (match nav_field i (fun nav -> nav.nav_out) with
                | Some out ->
                  if (Option.get navs.(i)).nav_exact then mark i;
                  out binding.(a)
                | None ->
                  mark i;
                  Regpath.reachable_set rp g binding.(a))
                :: !sets
            else if a = p && b <> p && bound.(b) then
              (* Backward propagation: the reverse automaton (or the
                 index's nav_in) gives the exact set of sources reaching
                 binding.(b) — before the flat engine this cost a
                 whole-graph scan per binding, so the case fell through
                 to the global candidate set. *)
              sets :=
                (match nav_field i (fun nav -> nav.nav_in) with
                | Some inn ->
                  if (Option.get navs.(i)).nav_exact then mark i;
                  inn binding.(b)
                | None ->
                  mark i;
                  Regpath.reachable_rev_set rp g binding.(b))
                :: !sets)
        p_edges;
      let base =
        match !sets with
        | [] -> global_candidates p
        | sets ->
          Iset.filter
            (fun n -> pat.p_nodes.(p) n (Digraph.payload g n))
            (Iset.inter_many sets)
      in
      (List.fold_left Iset.diff base !excl, !sat)
    in
    (* Seed the pre-bound nodes. *)
    let seeds_ok =
      List.for_all
        (fun (p, n) ->
          if p < 0 || p >= k then false
          else if bound.(p) then binding.(p) = n
          else if pat.p_nodes.(p) n (Digraph.payload g n) then begin
            binding.(p) <- n;
            bound.(p) <- true;
            edges_ok p
          end
          else false)
        pre_bound
    in
    let already = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bound in
    let i_plan () =
      if (not seeds_ok) || already >= k then None
      else
        let p = next_node () in
        let cands, sat = candidates_for p in
        Some (p, cands, sat)
    in
    let rec extend ~first depth =
      if depth = k then emit (Array.copy binding)
      else begin
        let p, cands, sat =
          match first with
          | Some (p, cands, sat) -> (p, cands, sat)
          | None ->
            let p = next_node () in
            let cands, sat = candidates_for p in
            (p, cands, sat)
        in
        bound.(p) <- true;
        (* one backtracking step per candidate tried: the deadline's
           unit of work, so a cancelled search unwinds from here *)
        Iset.iter
          (fun candidate ->
            Deadline.tick ();
            binding.(p) <- candidate;
            if edges_ok ~skip:sat p then extend ~first:None (depth + 1))
          cands;
        binding.(p) <- -1;
        bound.(p) <- false
      end
    in
    let i_run ~first = if seeds_ok then extend ~first already in
    { i_plan; i_run }
  end

let iter_embeddings ?(pre_bound = []) ?(provider = no_provider) ?domains
    (pat : ('n, 'e) pattern)
    (g : ('n, 'e) Digraph.t) ~(emit : embedding -> unit) : unit =
  let domains =
    match domains with Some d -> max 1 d | None -> Par.default_domains ()
  in
  if Array.length pat.p_nodes = 0 then emit [||]
  else
    let shared = make_shared ~provider pat in
    let seq () =
      (instance ~shared ~copy_cands:false ~pre_bound ~provider pat g ~emit)
        .i_run ~first:None
    in
    if domains <= 1 then seq ()
    else begin
      let probe =
        instance ~shared ~copy_cands:false ~pre_bound ~provider pat g
          ~emit:ignore
      in
      match probe.i_plan () with
      | None -> seq ()
      | Some (p, cands, sat) ->
        let n = Iset.length cands in
        let k = Array.length pat.p_nodes in
        (* Work estimate for the gate.  The first choice point is the
           *smallest* candidate set by fail-first design, so its length
           alone would under-count a search that fans out per seed;
           instead sum the global candidate sets the probe has already
           memoised — the total candidate mass across pattern nodes —
           plus a fixed weight per regular-path edge (a path constraint
           hides a traversal, not one predicate test).  O(k), all
           lengths O(1). *)
        let cost =
          let mass = ref (n * k) in
          Array.iter
            (function
              | Some c -> mass := !mass + Iset.length c | None -> ())
            shared.s_cands;
          Array.iter
            (fun (_, c, _) ->
              match c with
              | Path _ -> mass := !mass + (64 * n)
              | Direct _ | Negated _ -> ())
            shared.s_edges;
          !mass
        in
        let chunks =
          Par.map_chunks ~cost ~domains ~n (fun lo hi ->
              let buf = Vec.create ~capacity:(max 16 (hi - lo)) ~dummy:[||] () in
              let inst =
                instance ~shared ~copy_cands:true ~pre_bound ~provider pat g
                  ~emit:(fun e -> ignore (Vec.push buf e))
              in
              inst.i_run ~first:(Some (p, Iset.sub cands lo (hi - lo), sat));
              buf)
        in
        List.iter (fun buf -> Vec.iteri (fun _ e -> emit e) buf) chunks
    end

exception Found

let exists ?pre_bound ?provider pat g =
  match
    iter_embeddings ?pre_bound ?provider ~domains:1 pat g ~emit:(fun _ ->
        raise Found)
  with
  | () -> false
  | exception Found -> true
