(** Regular path queries — flat product-automaton engine.

    GraphLog introduced dashed edges carrying a regular expression over
    edge labels: such an edge matches any *path* in the database whose
    label word belongs to the expression's language (e.g. [index+] in the
    paper's root-link example).  WG-Log inherits the construct, XML-GL's
    deep containment is the special case [child+], and the textual MATCH
    front-end exposes the full surface — so this module is the
    navigational workhorse of all three engines.

    Implementation: the regex is compiled once into a dense int-indexed
    automaton — its Glushkov (position) automaton, ε-free by
    construction, flattened into offset/target arrays.  State 0 is the
    start and state [p] means "position [p] was just read", so a
    transition into [p] tests leaf [p].  Evaluation is then a plain BFS
    over single [(node, state)] pairs: the product space is
    [|V| * |Q|], visited pairs live in a flat [Bytes] bitset, the
    frontier is an int array whose retained prefix doubles as the
    touched list (so clearing costs O(visited), not O(|V|*|Q|)), and no
    list cell is allocated on the hot path.  Scratch buffers are
    domain-local and reused across searches; [connects] exits on the
    first accepting pair; a reverse automaton built from the same
    positions answers "which sources reach [n]" without scanning the
    graph.

    Each symbol leaf carries both a predicate closure (for mutable
    [Digraph]s and generic frozen views) and a classification
    ([Lany]/[Lname]/[Lopaque]) that [Gql_data.Index] resolves against
    the snapshot's interned symbols, turning label tests on the frozen
    planes into single integer compares. *)

(* ------------------------------------------------------------------ *)
(* Engine counters, mirroring [Par.stats].                             *)

let c_compiles = Atomic.make 0
let c_specialisations = Atomic.make 0
let c_searches = Atomic.make 0
let c_memo_hits = Atomic.make 0
let c_memo_misses = Atomic.make 0
let c_frontier_peak = Atomic.make 0
let c_scratch_reuses = Atomic.make 0

type stats = {
  compiles : int;  (** regexes compiled to automata *)
  specialisations : int;  (** per-snapshot symbol resolutions *)
  searches : int;  (** product-BFS runs (any direction, any backend) *)
  memo_hits : int;  (** snapshot path-memo hits (bumped by the index) *)
  memo_misses : int;
  frontier_peak : int;
      (** the most (node,state) pairs one search pushed, over the searches
          since the previous {!stats} call *)
  scratch_reuses : int;  (** searches that reused a warm domain-local scratch *)
}

(** The counters now.  Reading takes the frontier peak: each call
    reports the peak of the searches since the call before it, so a
    [before]/[after] pair, or two METRICS requests, bracket a window. *)
let stats () =
  {
    compiles = Atomic.get c_compiles;
    specialisations = Atomic.get c_specialisations;
    searches = Atomic.get c_searches;
    memo_hits = Atomic.get c_memo_hits;
    memo_misses = Atomic.get c_memo_misses;
    frontier_peak = Atomic.exchange c_frontier_peak 0;
    scratch_reuses = Atomic.get c_scratch_reuses;
  }

(* [frontier_peak] is not a monotone count: [after]'s value already is
   the peak of the window since [before] was read. *)
let stats_diff ~(before : stats) (after : stats) : stats =
  {
    compiles = after.compiles - before.compiles;
    specialisations = after.specialisations - before.specialisations;
    searches = after.searches - before.searches;
    memo_hits = after.memo_hits - before.memo_hits;
    memo_misses = after.memo_misses - before.memo_misses;
    frontier_peak = after.frontier_peak;
    scratch_reuses = after.scratch_reuses - before.scratch_reuses;
  }

let stats_lines () =
  let s = stats () in
  Printf.sprintf
    "path_compiles=%d\npath_specialisations=%d\npath_searches=%d\n\
     path_memo_hits=%d\npath_memo_misses=%d\npath_frontier_peak=%d\n\
     path_scratch_reuses=%d\n"
    s.compiles s.specialisations s.searches s.memo_hits s.memo_misses
    s.frontier_peak s.scratch_reuses

(* The snapshot index owns the memo table; it reports outcomes here so
   all path counters serve from one place. *)
let note_memo_hit () = Atomic.incr c_memo_hits
let note_memo_miss () = Atomic.incr c_memo_misses

let rec bump_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then bump_max a v

(* ------------------------------------------------------------------ *)
(* Automaton representation.                                           *)

(** How a symbol leaf tests an edge once the snapshot's interned symbols
    are known.  [Lany] admits every edge the plane admits; [Lname]
    compares against one interned name; [Lopaque] always falls back to
    the leaf's predicate closure. *)
type lclass = Lany | Lname of string | Lopaque

(* One direction of the automaton.  State [q] owns transitions
   [h_off.(q) .. h_off.(q+1)-1]; transition [ti] enters state
   [p = h_next.(ti)], a position, by testing leaf [p] (index [p - 1] of
   the leaf arrays).  Leaves are positions in [Syntax.symbols] order. *)
type half = {
  h_off : int array;  (** length [n_states + 1] *)
  h_next : int array;
  h_final : bool array;  (** accepting states *)
}

type 'e t = {
  uid : int;  (** process-unique; keys per-snapshot spec/memo caches *)
  plane_hint : int;  (** which frozen edge plane applies; 0 = none *)
  n_states : int;  (** positions + 1 *)
  is_nullable : bool;  (** ε ∈ L: the start node is always reachable *)
  bound : int option;  (** longest accepted word when the language is finite *)
  preds : ('e -> bool) array;  (** per-leaf predicate closures *)
  classes : lclass array;  (** per-leaf classification *)
  opaque_spec : int array;  (** all-[-2] spec: force the predicate lane *)
  fwd : half;
  rev : half;  (** same language reversed; answers backward navigation *)
}

let uid t = t.uid
let plane_hint t = t.plane_hint
let nullable t = t.is_nullable
let depth_bound t = t.bound
let uid_counter = Atomic.make 0

(* --- compilation --------------------------------------------------- *)

(* [next.(q)]: the states entered from [q]; [final.(q)]: is [q] accepting. *)
let half_of (next : int array array) (final : bool array) : half =
  let h_off = Array.make (Array.length next + 1) 0 in
  Array.iteri (fun q ps -> h_off.(q + 1) <- h_off.(q) + Array.length ps) next;
  { h_off; h_next = Array.concat (Array.to_list next); h_final = final }

exception Cyclic

(* Longest accepted word, walking the symbol graph from state 0.  Any
   cycle reachable from the start makes the bound [None] — conservative
   when the cycle cannot reach acceptance, which only costs the planner
   a looser estimate. *)
let compute_bound (h : half) : int option =
  let n_states = Array.length h.h_final in
  let color = Array.make n_states 0 in
  (* 0 white, 1 on stack, 2 done *)
  let best = Array.make n_states (-1) in
  (* -1: acceptance unreachable from here *)
  let rec go q =
    match color.(q) with
    | 1 -> raise Cyclic
    | 2 -> best.(q)
    | _ ->
      color.(q) <- 1;
      let b = ref (if h.h_final.(q) then 0 else -1) in
      for ti = h.h_off.(q) to h.h_off.(q + 1) - 1 do
        let bt = go h.h_next.(ti) in
        if bt >= 0 && bt + 1 > !b then b := bt + 1
      done;
      color.(q) <- 2;
      best.(q) <- !b;
      !b
  in
  try Some (max (go 0) 0) with Cyclic -> None

let compile_classified ~(plane_hint : int) ~(classify : 'a -> lclass)
    (pred : 'a -> 'e -> bool) (re : 'a Gql_regex.Syntax.t) : 'e t =
  Atomic.incr c_compiles;
  let module G = Gql_regex.Glushkov in
  let g = G.build re in
  let n = G.n_positions g in
  let ns = n + 1 in
  let final_at ps =
    let f = Array.make ns false in
    Array.iter (fun p -> f.(p) <- true) ps;
    f.(0) <- G.nullable g;
    f
  in
  let fwd = half_of (Array.init ns (G.follow g)) (final_at (G.last g)) in
  (* reversed: start into [last], step along transposed [follow], accept
     at [first] *)
  let back = Array.make ns [] in
  for q = n downto 1 do
    Array.iter (fun p -> back.(p) <- q :: back.(p)) (G.follow g q)
  done;
  back.(0) <- Array.to_list (G.last g);
  let rev = half_of (Array.map Array.of_list back) (final_at (G.first g)) in
  let leaves = Array.init n (fun i -> G.sym_at g (i + 1)) in
  {
    uid = Atomic.fetch_and_add uid_counter 1;
    plane_hint;
    n_states = ns;
    is_nullable = G.nullable g;
    bound = compute_bound fwd;
    preds = Array.map pred leaves;
    classes = Array.map classify leaves;
    opaque_spec = Array.make n (-2);
    fwd;
    rev;
  }

let compile (pred : 'a -> 'e -> bool) (re : 'a Gql_regex.Syntax.t) : 'e t =
  compile_classified ~plane_hint:0 ~classify:(fun _ -> Lopaque) pred re

(* --- per-snapshot specialisation ----------------------------------- *)

(** Per-leaf resolved symbol test against one snapshot's interner:
    [>= 0] interned id to compare, [-1] any plane-admitted edge,
    [-2] call the predicate closure, [-3] a name unseen at freeze time
    (matches nothing — symbols interned after the snapshot cannot name
    any frozen edge). *)
type spec = int array

let specialise (t : 'e t) ~(intern : string -> int) : spec =
  Atomic.incr c_specialisations;
  Array.map
    (function
      | Lany -> -1
      | Lopaque -> -2
      | Lname s ->
        let id = intern s in
        if id < 0 then -3 else id)
    t.classes

(* ------------------------------------------------------------------ *)
(* Domain-local scratch.                                               *)

type scratch = {
  busy : bool Atomic.t;
  (* atomic rather than a plain flag: the serve pool runs sys-threads
     inside worker domains, so two searches can race on one domain's
     scratch; the loser takes a throwaway allocation. *)
  mutable visited : Bytes.t;  (** (node * n_states + state) bitset *)
  mutable frontier : int array;  (** pair nodes; prefix = touched list *)
  mutable fstate : int array;  (** pair states, parallel to [frontier] *)
  mutable n_frontier : int;
  mutable rmark : Bytes.t;  (** per-node result-recorded bitset *)
  mutable results : int array;  (** result nodes in first-visit order *)
  mutable n_results : int;
}

let fresh_scratch () =
  {
    busy = Atomic.make false;
    visited = Bytes.create 0;
    frontier = [||];
    fstate = [||];
    n_frontier = 0;
    rmark = Bytes.create 0;
    results = [||];
    n_results = 0;
  }

let scratch_key = Domain.DLS.new_key fresh_scratch

let acquire () =
  let s = Domain.DLS.get scratch_key in
  if Atomic.compare_and_set s.busy false true then begin
    if Bytes.length s.visited > 0 then Atomic.incr c_scratch_reuses;
    s
  end
  else
    let t = fresh_scratch () in
    Atomic.set t.busy true;
    t

let release s = Atomic.set s.busy false

(* Invariant: [visited]/[rmark] are all-zero between searches (cleared
   via the touched lists), so growth never needs to copy — fresh bytes
   are zero already. *)
let ensure s ~pairs ~nodes =
  let vbytes = (pairs + 7) lsr 3 in
  if Bytes.length s.visited < vbytes then
    s.visited <- Bytes.make (max vbytes (2 * Bytes.length s.visited)) '\000';
  let rbytes = (nodes + 7) lsr 3 in
  if Bytes.length s.rmark < rbytes then
    s.rmark <- Bytes.make (max rbytes (2 * Bytes.length s.rmark)) '\000';
  if Array.length s.frontier = 0 then begin
    s.frontier <- Array.make 256 0;
    s.fstate <- Array.make 256 0
  end;
  if Array.length s.results = 0 then s.results <- Array.make 64 0

let bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

let bit_clear b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) land lnot (1 lsl (i land 7))))

let sort_ints (a : int array) =
  (* BFS visit order is already ascending on chain/tree-shaped data;
     an O(n) sortedness check there beats the unconditional sort *)
  let n = Array.length a in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if Array.unsafe_get a (i - 1) > Array.unsafe_get a i then sorted := false
  done;
  if not !sorted then Array.sort (fun (x : int) y -> compare x y) a

(* ------------------------------------------------------------------ *)
(* The product BFS.                                                    *)

exception Found

(* One search over pre-sized, clean scratch [s]; leaves [s] clean.
   [iter u k] must call [k dst es lab] for each edge out of [u] (in the
   search direction), where [es] is the plane-resolved symbol of the
   edge ([-1] = lane-rejected) or any value when [spec] never consults
   it.  [target >= 0] switches to early-exit connectivity. *)
let search_scratch (t : 'e t) (h : half) (spec : spec) (s : scratch)
    ~(iter : int -> (int -> int -> 'e -> unit) -> unit) ~(src : int)
    ~(target : int) : [ `Hit | `Set of int array ] =
  Atomic.incr c_searches;
  let ns = t.n_states in
  let preds = t.preds in
  let push_frontier u q =
    if s.n_frontier = Array.length s.frontier then begin
      s.frontier <- Array.append s.frontier (Array.make (Array.length s.frontier) 0);
      s.fstate <- Array.append s.fstate (Array.make (Array.length s.fstate) 0)
    end;
    s.frontier.(s.n_frontier) <- u;
    s.fstate.(s.n_frontier) <- q;
    s.n_frontier <- s.n_frontier + 1
  in
  let record node =
    if not (bit_get s.rmark node) then begin
      bit_set s.rmark node;
      if s.n_results = Array.length s.results then
        s.results <- Array.append s.results (Array.make (Array.length s.results) 0);
      s.results.(s.n_results) <- node;
      s.n_results <- s.n_results + 1;
      if node = target then raise_notrace Found
    end
  in
  let hit = ref false in
  let finish () =
    bump_max c_frontier_peak s.n_frontier;
    for i = 0 to s.n_frontier - 1 do
      bit_clear s.visited ((s.frontier.(i) * ns) + s.fstate.(i))
    done;
    for i = 0 to s.n_results - 1 do
      bit_clear s.rmark s.results.(i)
    done;
    s.n_frontier <- 0;
    s.n_results <- 0
  in
  Fun.protect ~finally:finish @@ fun () ->
  (try
     bit_set s.visited (src * ns);
     push_frontier src 0;
     if h.h_final.(0) then record src;
     let cur_q = ref 0 in
     let on_edge dst es lab =
       let q = !cur_q in
       for ti = h.h_off.(q) to h.h_off.(q + 1) - 1 do
         let tq = Array.unsafe_get h.h_next ti in
         let li = tq - 1 in
         let sv = Array.unsafe_get spec li in
         let ok =
           if sv >= 0 then es = sv
           else if sv = -1 then es >= 0
           else if sv = -2 then (Array.unsafe_get preds li) lab
           else false
         in
         if ok then begin
           let p = (dst * ns) + tq in
           if not (bit_get s.visited p) then begin
             bit_set s.visited p;
             push_frontier dst tq;
             if Array.unsafe_get h.h_final tq then record dst
           end
         end
       done
     in
     let cursor = ref 0 in
     while !cursor < s.n_frontier do
       (* a cancelled search unwinds through [finish], leaving [s] clean;
          callers memoise only completed results *)
       Deadline.tick ();
       let u = Array.unsafe_get s.frontier !cursor in
       cur_q := Array.unsafe_get s.fstate !cursor;
       incr cursor;
       iter u on_edge
     done
   with Found -> hit := true);
  if !hit then `Hit
  else begin
    let r = Array.sub s.results 0 s.n_results in
    sort_ints r;
    `Set r
  end

let product_search t h spec ~n_nodes ~iter ~src ~target =
  let s = acquire () in
  ensure s ~pairs:(n_nodes * t.n_states) ~nodes:n_nodes;
  Fun.protect
    ~finally:(fun () -> release s)
    (fun () -> search_scratch t h spec s ~iter ~src ~target)

let set_of = function
  | `Set r -> Iset.unsafe_of_sorted_array r
  | `Hit -> assert false

(* --- edge iterators for each backend ------------------------------- *)

let dg_fwd g u k = List.iter (fun (d, l) -> k d 0 l) (Digraph.succ g u)
let dg_rev g u k = List.iter (fun (d, l) -> k d 0 l) (Digraph.pred g u)
let csr_fwd c u k = Csr.iter_succ (fun d l -> k d 0 l) c u
let csr_rev c u k = Csr.iter_pred (fun d l -> k d 0 l) c u

let csr_fwd_plane (c : (_, _) Csr.t) (plane : int array) u k =
  for i = c.Csr.out_off.(u) to c.Csr.out_off.(u + 1) - 1 do
    k (Array.unsafe_get c.Csr.out_dst i) (Array.unsafe_get plane i)
      (Array.unsafe_get c.Csr.out_lab i)
  done

let csr_rev_plane (c : (_, _) Csr.t) (plane : int array) u k =
  for i = c.Csr.in_off.(u) to c.Csr.in_off.(u + 1) - 1 do
    k (Array.unsafe_get c.Csr.in_src i) (Array.unsafe_get plane i)
      (Array.unsafe_get c.Csr.in_lab i)
  done

(* --- public search API --------------------------------------------- *)

(** All nodes reachable from [start] along a path whose labels match the
    expression, ascending.  The empty path counts when the expression is
    nullable (so [start] itself may be returned). *)
let reachable_set (rp : 'e t) (g : ('n, 'e) Digraph.t) (start : Digraph.node) :
    Iset.t =
  set_of
    (product_search rp rp.fwd rp.opaque_spec ~n_nodes:(Digraph.n_nodes g)
       ~iter:(dg_fwd g) ~src:start ~target:(-1))

let reachable rp g start : Digraph.node list = Iset.to_list (reachable_set rp g start)

(** All sources from which a matching path leads *to* [start] (the
    reverse automaton walked over predecessor edges), ascending. *)
let reachable_rev_set (rp : 'e t) (g : ('n, 'e) Digraph.t) (start : Digraph.node) :
    Iset.t =
  set_of
    (product_search rp rp.rev rp.opaque_spec ~n_nodes:(Digraph.n_nodes g)
       ~iter:(dg_rev g) ~src:start ~target:(-1))

(** Same searches over a frozen CSR view, testing each edge with the
    leaf predicates. *)
let reachable_frozen_set (rp : 'e t) (c : ('n, 'e) Csr.t) (start : Digraph.node) :
    Iset.t =
  set_of
    (product_search rp rp.fwd rp.opaque_spec ~n_nodes:(Csr.n_nodes c)
       ~iter:(csr_fwd c) ~src:start ~target:(-1))

let reachable_frozen rp c start : Digraph.node list =
  Iset.to_list (reachable_frozen_set rp c start)

let reachable_frozen_rev_set (rp : 'e t) (c : ('n, 'e) Csr.t)
    (start : Digraph.node) : Iset.t =
  set_of
    (product_search rp rp.rev rp.opaque_spec ~n_nodes:(Csr.n_nodes c)
       ~iter:(csr_rev c) ~src:start ~target:(-1))

(** Frozen searches over a specialised symbol plane: [plane] assigns
    each edge (in [out_lab]/[in_lab] order) its interned name, or [-1]
    when the lane rejects the edge; label tests become int compares. *)
let reachable_plane (rp : 'e t) (spec : spec) (c : ('n, 'e) Csr.t)
    ~(plane : int array) (start : Digraph.node) : Iset.t =
  set_of
    (product_search rp rp.fwd spec ~n_nodes:(Csr.n_nodes c)
       ~iter:(csr_fwd_plane c plane) ~src:start ~target:(-1))

let reachable_rev_plane (rp : 'e t) (spec : spec) (c : ('n, 'e) Csr.t)
    ~(plane : int array) (start : Digraph.node) : Iset.t =
  set_of
    (product_search rp rp.rev spec ~n_nodes:(Csr.n_nodes c)
       ~iter:(csr_rev_plane c plane) ~src:start ~target:(-1))

(** Does a matching path lead from [src] to [dst]?  Exits on the first
    accepting [(dst, state)] pair instead of materialising the set. *)
let connects rp (g : ('n, 'e) Digraph.t) ~src ~dst =
  match
    product_search rp rp.fwd rp.opaque_spec ~n_nodes:(Digraph.n_nodes g)
      ~iter:(dg_fwd g) ~src ~target:dst
  with
  | `Hit -> true
  | `Set _ -> false

(* --- multi-source batches ------------------------------------------ *)

(* One scratch acquisition amortised over the whole source frontier;
   per-source results stay independent (visited is cleared between
   sources — the automaton state reached en route differs per source,
   so closures cannot be merged). *)
let batch t h ~n_nodes ~iter (srcs : int array) : Iset.t array =
  let s = acquire () in
  ensure s ~pairs:(n_nodes * t.n_states) ~nodes:n_nodes;
  Fun.protect
    ~finally:(fun () -> release s)
    (fun () ->
      Array.map
        (fun src ->
          set_of (search_scratch t h t.opaque_spec s ~iter ~src ~target:(-1)))
        srcs)

(** [reachable_batch rp g srcs] = per-source reachable sets, resolved in
    one scratch sweep. *)
let reachable_batch (rp : 'e t) (g : ('n, 'e) Digraph.t) (srcs : int array) :
    Iset.t array =
  batch rp rp.fwd ~n_nodes:(Digraph.n_nodes g) ~iter:(dg_fwd g) srcs

let reachable_frozen_batch (rp : 'e t) (c : ('n, 'e) Csr.t) (srcs : int array) :
    Iset.t array =
  batch rp rp.fwd ~n_nodes:(Csr.n_nodes c) ~iter:(csr_fwd c) srcs

let reachable_rev_batch (rp : 'e t) (g : ('n, 'e) Digraph.t) (srcs : int array) :
    Iset.t array =
  batch rp rp.rev ~n_nodes:(Digraph.n_nodes g) ~iter:(dg_rev g) srcs

(* ------------------------------------------------------------------ *)
(* Reference engines.                                                  *)

(* The subset-construction BFS over (node, position set) pairs, kept
   as the list-based reference: qcheck equivalence properties and the
   E16 micro-benchmark compare against it. *)
let reachable_subset_iter (rp : 'e t)
    ~(iter_succ : Digraph.node -> (Digraph.node -> 'e -> unit) -> unit)
    (start : Digraph.node) : Digraph.node list =
  let h = rp.fwd in
  let step set label =
    let out = Array.make rp.n_states false in
    Array.iteri
      (fun q live ->
        if live then
          for ti = h.h_off.(q) to h.h_off.(q + 1) - 1 do
            let p = h.h_next.(ti) in
            if rp.preds.(p - 1) label then out.(p) <- true
          done)
      set;
    out
  in
  let seen : (int * bool array, unit) Hashtbl.t = Hashtbl.create 64 in
  let results = Hashtbl.create 16 in
  let queue = Queue.create () in
  let enqueue node set =
    if Array.exists Fun.id set && not (Hashtbl.mem seen (node, set)) then begin
      Hashtbl.replace seen (node, set) ();
      Queue.add (node, set) queue
    end
  in
  enqueue start (Array.init rp.n_states (fun q -> q = 0));
  while not (Queue.is_empty queue) do
    let node, set = Queue.take queue in
    if Array.exists2 ( && ) set h.h_final then Hashtbl.replace results node ();
    iter_succ node (fun next label -> enqueue next (step set label))
  done;
  Hashtbl.fold (fun n () acc -> n :: acc) results [] |> List.sort compare

let reachable_subset (rp : 'e t) (g : ('n, 'e) Digraph.t) (start : Digraph.node) :
    Digraph.node list =
  reachable_subset_iter rp start ~iter_succ:(fun node f ->
      List.iter (fun (next, l) -> f next l) (Digraph.succ g node))

let reachable_subset_frozen (rp : 'e t) (c : ('n, 'e) Csr.t)
    (start : Digraph.node) : Digraph.node list =
  reachable_subset_iter rp start ~iter_succ:(fun node f -> Csr.iter_succ f c node)

(** Reference implementation for property tests: enumerate all paths up
    to [max_len] hops, taking the Brzozowski derivative of the regex
    along each, independent of any automaton.  Exponential; small graphs
    only. *)
let reachable_naive (pred : 'a -> 'e -> bool) (re : 'a Gql_regex.Syntax.t)
    (g : ('n, 'e) Digraph.t) (start : Digraph.node) ~max_len =
  let results = Hashtbl.create 16 in
  let rec go node r len =
    if Gql_regex.Syntax.nullable r then Hashtbl.replace results node ();
    if len < max_len then
      List.iter
        (fun (next, l) ->
          match Gql_regex.Syntax.derive pred l r with
          | Gql_regex.Syntax.Empty -> ()
          | r' -> go next r' (len + 1))
        (Digraph.succ g node)
  in
  go start re 0;
  Hashtbl.fold (fun n () acc -> n :: acc) results [] |> List.sort compare
