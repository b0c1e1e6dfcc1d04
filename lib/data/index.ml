module Iset = Gql_graph.Iset

type sets = { off : int array; pool : int array }

type 'k postings = { keys : 'k array; sets : sets }

(* Most per-node sets hold one or two members; an array literal
   allocates them inline, where [Array.sub] is a C call. *)
let slice (s : sets) i : Iset.t =
  let lo = s.off.(i) in
  match s.off.(i + 1) - lo with
  | 0 -> Iset.empty
  | 1 -> [| s.pool.(lo) |]
  | 2 -> [| s.pool.(lo); s.pool.(lo + 1) |]
  | len -> Iset.unsafe_of_sorted_array (Array.sub s.pool lo len)

(* Membership answers straight off the pool, so link tests stay
   allocation-free. *)
let slice_mem (s : sets) i v : bool =
  Iset.mem_range s.pool ~lo:s.off.(i) ~hi:s.off.(i + 1) v

(* Rank of [key] in the sorted key array, or -1 when absent. *)
let p_rank (keys : int array) key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if Array.unsafe_get keys mid < key then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length keys && keys.(!lo) = key then !lo else -1

let p_find (p : int postings) key : Iset.t =
  let i = p_rank p.keys key in
  if i < 0 then Iset.empty else slice p.sets i

let p_mem (p : int postings) key v : bool =
  let i = p_rank p.keys key in
  i >= 0 && slice_mem p.sets i v

(* The value planes' lookup: the same search under the order their keys
   are sorted by. *)
let v_find cmp (p : 'k postings) key : Iset.t =
  let lo = ref 0 and hi = ref (Array.length p.keys) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if cmp p.keys.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length p.keys && cmp p.keys.(!lo) key = 0 then
    slice p.sets !lo
  else Iset.empty

type t = {
  data : Graph.t;
  csr : (Graph.node_kind, Graph.edge) Gql_graph.Csr.t;
  version : int * int;
  symtab : Symtab.t;
  stride : int;
  by_label : int postings;
  by_number : float postings;
  by_string : string postings;
  all_complex : Iset.t;
  all_atoms : Iset.t;
  out_by_name : int postings;
  in_by_name : int postings;
  attr_out : int postings;
  child_out : sets;
  child_in : sets;
  ref_out : sets;
  ref_in : sets;
  edges_by_name : int postings;
  (* Regular-path engine state, all lazy and mutex-guarded (the serve
     pool shares one snapshot across worker domains): per-lane edge-sym
     planes aligned with the CSR out/in slices, per-automaton
     specialisations, and the path-result memo.  All of it dies with
     the snapshot, so the existing (n_nodes, n_edges) version scheme
     invalidates it for free. *)
  path_lock : Mutex.t;
  planes : (int, int array * int array) Hashtbl.t;
  path_specs : (int, Gql_graph.Regpath.spec) Hashtbl.t;
  path_memo : (int * int * int, Iset.t) Hashtbl.t;
}

(* --- build ------------------------------------------------------------ *)

(* Stable counting sort of [ids] by [key id] in [0, range): the sorted
   ids, and the offset where each key's run starts (length [range + 1]). *)
let counting_sort ~range key ids : int array * int array =
  let off = Array.make (range + 1) 0 in
  Array.iter (fun e -> let k = key e + 1 in off.(k) <- off.(k) + 1) ids;
  for k = 1 to range do
    off.(k) <- off.(k) + off.(k - 1)
  done;
  let fill = Array.sub off 0 range in
  let out = Array.make (Array.length ids) 0 in
  Array.iter
    (fun e ->
      let k = key e in
      out.(fill.(k)) <- e;
      fill.(k) <- fill.(k) + 1)
    ids;
  (out, off)

(* Postings over keys [0, range) from per-key run offsets, keeping the
   non-empty keys. *)
let of_runs (off : int array) pool : int postings =
  let range = Array.length off - 1 in
  let keys =
    Array.of_seq
      (Seq.filter (fun k -> off.(k + 1) > off.(k)) (Seq.init range Fun.id))
  in
  let starts = Array.map (fun k -> off.(k)) keys in
  { keys; sets = { off = Array.append starts [| off.(range) |]; pool } }

(* Postings from [ids] sorted by ([key], [value]), keeping the ids that
   pass [keep]: one entry per distinct key, its values deduplicated. *)
let group ids ~keep ~key ~value : int postings =
  let m = Array.length ids in
  let keys = Array.make m 0 and off = Array.make (m + 1) 0 in
  let pool = Array.make m 0 in
  let nk = ref 0 and w = ref 0 in
  Array.iter
    (fun e ->
      if keep e then begin
        let k = key e and v = value e in
        let fresh = !nk = 0 || keys.(!nk - 1) <> k in
        if fresh then begin
          keys.(!nk) <- k;
          off.(!nk) <- !w;
          incr nk
        end;
        if fresh || pool.(!w - 1) <> v then begin
          pool.(!w) <- v;
          incr w
        end
      end)
    ids;
  off.(!nk) <- !w;
  {
    keys = Array.sub keys 0 !nk;
    sets = { off = Array.sub off 0 (!nk + 1); pool = Array.sub pool 0 !w };
  }

(* A per-node plane from postings keyed by node. *)
let dense_of n (p : int postings) : sets =
  let off = Array.make (n + 1) 0 in
  Array.iteri
    (fun i k -> off.(k + 1) <- p.sets.off.(i + 1) - p.sets.off.(i))
    p.keys;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  { off; pool = p.sets.pool }

(* Value postings from (key, node) items in ascending node order.  A
   bucket's written key is its highest node's: keys equal under [cmp]
   may still differ in bits ([0.0] and [-0.0]), and snapshot files have
   always recorded that one. *)
let value_postings cmp (items : ('k * int) array) : 'k postings =
  Array.stable_sort (fun (a, _) (b, _) -> cmp a b) items;
  let k = Array.length items in
  let keys = ref [] and starts = ref [ k ] in
  for i = k - 1 downto 0 do
    let key = fst items.(i) in
    if i = k - 1 || cmp key (fst items.(i + 1)) <> 0 then keys := key :: !keys;
    if i = 0 || cmp (fst items.(i - 1)) key <> 0 then starts := i :: !starts
  done;
  {
    keys = Array.of_list !keys;
    sets = { off = Array.of_list !starts; pool = Array.map snd items };
  }

let build (data : Graph.t) : t =
  let csr = Gql_graph.Csr.freeze (Graph.digraph data) in
  let n = Gql_graph.Csr.n_nodes csr in
  let m = Gql_graph.Csr.n_edges csr in
  let symtab = Symtab.create () in
  let complex_l = ref [] and atoms_l = ref [] in
  let nums = ref [] and strs = ref [] in
  let node_syms = Array.make n (-1) in
  (* labels first, highest node first, then edge names in CSR order:
     the symbol ids a snapshot file records *)
  for i = n - 1 downto 0 do
    match Gql_graph.Csr.payload csr i with
    | Graph.Complex l ->
      node_syms.(i) <- Symtab.intern symtab l;
      complex_l := i :: !complex_l
    | Graph.Atom v ->
      (match Value.as_number v with
      | Some f -> nums := (f, i) :: !nums
      | None -> strs := (Value.to_string v, i) :: !strs);
      atoms_l := i :: !atoms_l
  done;
  Gql_graph.Csr.set_node_syms csr node_syms;
  let out_off = csr.Gql_graph.Csr.out_off and dst = csr.Gql_graph.Csr.out_dst in
  let lab = csr.Gql_graph.Csr.out_lab in
  let sym =
    Array.map (fun (e : Graph.edge) -> Symtab.intern symtab e.Graph.name) lab
  in
  let src = Array.make m 0 in
  for s = 0 to n - 1 do
    Array.fill src out_off.(s) (out_off.(s + 1) - out_off.(s)) s
  done;
  let stride = max 1 (Symtab.length symtab) in
  let src_of e = src.(e) and dst_of e = dst.(e) and sym_of e = sym.(e) in
  let all_complex = Array.of_list !complex_l in
  let by_node, label_runs =
    counting_sort ~range:stride (fun i -> node_syms.(i)) all_complex
  in
  (* Edge ids are out-CSR positions.  Stable counting sorts order them
     by (dst, src), then (src, dst), then (name, src, dst), and from
     there by (src, name, dst) and (dst, name, src). *)
  let by_dst, _ = counting_sort ~range:n dst_of (Array.init m Fun.id) in
  let by_src, _ = counting_sort ~range:n src_of by_dst in
  let by_name, name_runs = counting_sort ~range:stride sym_of by_src in
  let out_order, _ = counting_sort ~range:n src_of by_name in
  let in_order, _ = counting_sort ~range:n dst_of by_name in
  let any _ = true in
  let child e = match lab.(e).Graph.kind with Graph.Child -> true | _ -> false in
  let refs e =
    match lab.(e).Graph.kind with Graph.Ref | Graph.Rel -> true | _ -> false
  in
  let attr e =
    match lab.(e).Graph.kind with Graph.Attribute -> true | _ -> false
  in
  let out_key e = (src.(e) * stride) + sym.(e) in
  let in_key e = (dst.(e) * stride) + sym.(e) in
  let names = of_runs name_runs by_name in
  {
    data;
    csr;
    version = (Graph.n_nodes data, Graph.n_edges data);
    symtab;
    stride;
    by_label = of_runs label_runs by_node;
    by_number = value_postings Float.compare (Array.of_list !nums);
    by_string = value_postings String.compare (Array.of_list !strs);
    all_complex = Iset.unsafe_of_sorted_array all_complex;
    all_atoms = Iset.unsafe_of_sorted_array (Array.of_list !atoms_l);
    out_by_name = group out_order ~keep:any ~key:out_key ~value:dst_of;
    in_by_name = group in_order ~keep:any ~key:in_key ~value:src_of;
    attr_out = group out_order ~keep:attr ~key:out_key ~value:dst_of;
    child_out = dense_of n (group by_src ~keep:child ~key:src_of ~value:dst_of);
    child_in = dense_of n (group by_dst ~keep:child ~key:dst_of ~value:src_of);
    ref_out = dense_of n (group by_src ~keep:refs ~key:src_of ~value:dst_of);
    ref_in = dense_of n (group by_dst ~keep:refs ~key:dst_of ~value:src_of);
    edges_by_name =
      {
        keys = names.keys;
        sets =
          {
            off = Array.map (fun o -> 2 * o) names.sets.off;
            pool =
              Array.init (2 * m) (fun j ->
                  let e = by_name.(j / 2) in
                  if j land 1 = 0 then src.(e) else dst.(e));
          };
      };
    path_lock = Mutex.create ();
    planes = Hashtbl.create 4;
    path_specs = Hashtbl.create 8;
    path_memo = Hashtbl.create 64;
  }

(* --- lookups --------------------------------------------------------- *)

let symtab t = t.symtab

let node_sym t n = Gql_graph.Csr.node_sym t.csr n

let label_sym t s = match Symtab.find t.symtab s with Some i -> i | None -> -1

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

let complex_with_sym t sym : Iset.t =
  if sym < 0 then Iset.empty else p_find t.by_label sym

let complex_with_label t l : Iset.t = complex_with_sym t (label_sym t l)

let complex_matching t p : Iset.t =
  let parts = ref [] in
  Array.iteri
    (fun i sym ->
      if p (Symtab.name t.symtab sym) then
        parts := slice t.by_label.sets i :: !parts)
    t.by_label.keys;
  match !parts with
  | [] -> Iset.empty
  | [ s ] -> s
  | parts -> List.fold_left Iset.union Iset.empty parts

let atoms_equal t v : Iset.t =
  match Value.as_number v with
  | Some f -> v_find Float.compare t.by_number f
  | None -> v_find String.compare t.by_string (Value.to_string v)

let all_complex t = t.all_complex
let all_atoms t = t.all_atoms

(* name-partitioned adjacency, keyed by one immediate int *)
let adj_named tbl t n sym : Iset.t =
  if sym < 0 then Iset.empty else p_find tbl ((n * t.stride) + sym)

let adj_mem tbl t n sym dst : bool =
  sym >= 0 && p_mem tbl ((n * t.stride) + sym) dst

let out_named_sym t n sym = adj_named t.out_by_name t n sym
let in_named_sym t n sym = adj_named t.in_by_name t n sym
let attr_named_sym t n sym = adj_named t.attr_out t n sym
let out_named t n name = out_named_sym t n (label_sym t name)
let in_named t n name = in_named_sym t n (label_sym t name)
let children t n = slice t.child_out n
let parents t n = slice t.child_in n
let ref_succ t n = slice t.ref_out n
let ref_pred t n = slice t.ref_in n

let edges_named t name : (int * int) array =
  let i = p_rank t.edges_by_name.keys (label_sym t name) in
  if i < 0 then [||]
  else
    let { off; pool } = t.edges_by_name.sets in
    Array.init ((off.(i + 1) - off.(i)) / 2) (fun j ->
        let p = off.(i) + (2 * j) in
        (pool.(p), pool.(p + 1)))

(** O(1) total degree, for the matcher's fail-first scorer. *)
let degree t n = Gql_graph.Csr.degree t.csr n

(* --- Homo navigation builders ---------------------------------------- *)

(* Navs resolve their name symbol once at construction, not per hop. *)

let nav_name t name : Gql_graph.Homo.nav =
  let sym = label_sym t name in
  {
    nav_out = Some (fun n -> out_named_sym t n sym);
    nav_in = Some (fun n -> in_named_sym t n sym);
    nav_links = Some (fun src dst -> adj_mem t.out_by_name t src sym dst);
    nav_exact = true;
  }

let nav_child t : Gql_graph.Homo.nav =
  {
    nav_out = Some (fun n -> children t n);
    nav_in = Some (fun n -> parents t n);
    nav_links = Some (fun src dst -> slice_mem t.child_out src dst);
    nav_exact = true;
  }

let nav_child_superset t : Gql_graph.Homo.nav =
  {
    nav_out = Some (fun n -> children t n);
    nav_in = Some (fun n -> parents t n);
    nav_links = None;
    nav_exact = false;
  }

let nav_attr t name : Gql_graph.Homo.nav =
  let sym = label_sym t name in
  {
    nav_out = Some (fun n -> attr_named_sym t n sym);
    nav_in = None;
    nav_links = Some (fun src dst -> adj_mem t.attr_out t src sym dst);
    nav_exact = true;
  }

let nav_ref t : Gql_graph.Homo.nav =
  {
    nav_out = Some (fun n -> ref_succ t n);
    nav_in = Some (fun n -> ref_pred t n);
    nav_links = Some (fun src dst -> slice_mem t.ref_out src dst);
    nav_exact = true;
  }

let nav_ref_named t name : Gql_graph.Homo.nav =
  let sym = label_sym t name in
  {
    nav_out = Some (fun n -> out_named_sym t n sym);
    nav_in = Some (fun n -> in_named_sym t n sym);
    nav_links = None;
    nav_exact = false;
  }

(* --- regular-path navigation ------------------------------------------ *)

module Rp = Gql_graph.Regpath

let plane_name = 1

let plane_rel = 2
let plane_child = 3

(* Per-edge interned name, or [-1] where the lane rejects the edge —
   index-aligned with the CSR out/in label slices, so a plane-mode
   search tests each hop with one integer compare. *)
let plane t hint : int array * int array =
  match with_lock t.path_lock (fun () -> Hashtbl.find_opt t.planes hint) with
  | Some p -> p
  | None ->
    let enc (e : Graph.edge) =
      (* cancellable: the plane is published only once complete *)
      Gql_graph.Deadline.tick ();
      let admitted =
        if hint = plane_rel then e.Graph.kind <> Graph.Attribute
        else if hint = plane_child then e.Graph.kind = Graph.Child
        else true
      in
      if not admitted then -1
      else
        (* every frozen edge name was interned during [build] *)
        match Symtab.find t.symtab e.Graph.name with Some s -> s | None -> -1
    in
    let p =
      ( Gql_graph.Csr.map_out_labels enc t.csr,
        Gql_graph.Csr.map_in_labels enc t.csr )
    in
    with_lock t.path_lock (fun () ->
        match Hashtbl.find_opt t.planes hint with
        | Some p -> p
        | None ->
          Hashtbl.replace t.planes hint p;
          p)

(* Automaton leaves resolved against this snapshot's interner, cached
   per automaton uid (names interned after the freeze resolve to the
   never-matching sentinel — they cannot name any frozen edge). *)
let path_spec t rp : Rp.spec =
  let uid = Rp.uid rp in
  match with_lock t.path_lock (fun () -> Hashtbl.find_opt t.path_specs uid) with
  | Some s -> s
  | None ->
    let s = Rp.specialise rp ~intern:(fun name -> label_sym t name) in
    with_lock t.path_lock (fun () ->
        if not (Hashtbl.mem t.path_specs uid) then
          Hashtbl.replace t.path_specs uid s);
    s

let path_run t rp ~(rev : bool) n : Iset.t =
  let hint = Rp.plane_hint rp in
  if hint = 0 then
    if rev then Rp.reachable_frozen_rev_set rp t.csr n
    else Rp.reachable_frozen_set rp t.csr n
  else
    let spec = path_spec t rp in
    let out_p, in_p = plane t hint in
    if rev then Rp.reachable_rev_plane rp spec t.csr ~plane:in_p n
    else Rp.reachable_plane rp spec t.csr ~plane:out_p n

(* Compute outside the lock: a racing duplicate computation is benign
   (both sides produce the same set) and path searches are far too slow
   to serialise across worker domains. *)
let path_cached t rp ~(rev : bool) n : Iset.t =
  let key = (Rp.uid rp, (if rev then 1 else 0), n) in
  match with_lock t.path_lock (fun () -> Hashtbl.find_opt t.path_memo key) with
  | Some s ->
    Rp.note_memo_hit ();
    s
  | None ->
    Rp.note_memo_miss ();
    let s = path_run t rp ~rev n in
    with_lock t.path_lock (fun () ->
        if not (Hashtbl.mem t.path_memo key) then
          Hashtbl.replace t.path_memo key s);
    s

let path_connects t rp ~src ~dst : bool =
  Iset.mem (path_cached t rp ~rev:false src) dst

let nav_path t (rp : Graph.edge Rp.t) : Gql_graph.Homo.nav =
  {
    nav_out = Some (fun n -> path_cached t rp ~rev:false n);
    nav_in = Some (fun n -> path_cached t rp ~rev:true n);
    nav_links = Some (fun src dst -> path_connects t rp ~src ~dst);
    nav_exact = true;
  }

let provider ?(navs : Gql_graph.Homo.nav option array = [||]) t
    ~(candidates : int -> Iset.t option) :
    (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider =
  {
    Gql_graph.Homo.prov_candidates = candidates;
    prov_degree = Some (degree t);
    prov_nav = (fun i -> if i < Array.length navs then navs.(i) else None);
  }

(* --- cache ------------------------------------------------------------ *)

type cache = { mutable cached : t option }

let cache () = { cached = None }

let refresh (c : cache) (data : Graph.t) : t =
  match c.cached with
  | Some idx
    when idx.data == data
         && idx.version = (Graph.n_nodes data, Graph.n_edges data) ->
    idx
  | Some _ | None ->
    let idx = build data in
    c.cached <- Some idx;
    idx
