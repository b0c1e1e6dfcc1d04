(** Frozen, index-friendly view of a {!Digraph}.

    [Digraph] is mutable and adjacency lives in cons lists — right for
    construction, wrong for the matcher's hot loops, where degrees are
    recomputed with [List.length] and neighbour walks chase pointers.
    Freezing packs the same graph into classic CSR (compressed sparse
    row) form: one offset array per direction plus flat neighbour/label
    arrays, so degrees are O(1) subtractions and adjacency scans are
    cache-friendly array slices.

    The frozen view is a snapshot: it does not observe later mutation of
    the source graph.  Neighbour order within a node is preserved from
    [Digraph.succ]/[Digraph.pred] (most recently added first), so code
    that iterates either representation sees the same sequence. *)

type ('n, 'e) t = {
  payloads : 'n array;
  out_off : int array;  (** length [n+1]; node [i] owns slice [out_off.(i) .. out_off.(i+1) - 1] *)
  out_dst : int array;
  out_lab : 'e array;
  in_off : int array;
  in_src : int array;
  in_lab : 'e array;
  mutable node_syms : int array;
      (** per-node interned label ids ([Gql_data.Symtab] ids, [-1] for
          nodes without a label); empty until an index build attaches
          them via {!set_node_syms}.  Ids are snapshot-local: valid only
          against the symbol table of the index that set them. *)
}

type node = Digraph.node

let n_nodes t = Array.length t.payloads
let n_edges t = Array.length t.out_dst
let payload t n = t.payloads.(n)

(** Attach per-node interned label ids (length must be [n_nodes]). *)
let set_node_syms t (syms : int array) =
  if Array.length syms <> Array.length t.payloads then
    invalid_arg "Csr.set_node_syms: length mismatch";
  t.node_syms <- syms

(** The interned label id of [n], or [-1] when no plane is attached or
    the node carries no label — so a single integer compare answers
    "is this a complex node with label X?". *)
let node_sym t n =
  if Array.length t.node_syms = 0 then -1 else t.node_syms.(n)

(* O(1) degrees — the point of the exercise. *)
let out_degree t n = t.out_off.(n + 1) - t.out_off.(n)
let in_degree t n = t.in_off.(n + 1) - t.in_off.(n)
let degree t n = out_degree t n + in_degree t n

let iter_succ f t n =
  for i = t.out_off.(n) to t.out_off.(n + 1) - 1 do
    f t.out_dst.(i) t.out_lab.(i)
  done

let iter_pred f t n =
  for i = t.in_off.(n) to t.in_off.(n + 1) - 1 do
    f t.in_src.(i) t.in_lab.(i)
  done

let fold_succ f acc t n =
  let acc = ref acc in
  iter_succ (fun d l -> acc := f !acc d l) t n;
  !acc

let fold_pred f acc t n =
  let acc = ref acc in
  iter_pred (fun s l -> acc := f !acc s l) t n;
  !acc

(** Per-edge derived planes, index-aligned with the out/in label slices
    (so [plane.(i)] annotates the edge [iter_succ]/[iter_pred] visits at
    position [i]).  [Gql_data.Index] uses these to resolve edge names to
    interned symbols once per snapshot for the regular-path engine. *)
let map_out_labels (f : 'e -> int) t : int array = Array.map f t.out_lab

let map_in_labels (f : 'e -> int) t : int array = Array.map f t.in_lab

(** Allocating compatibility shims, same shape as [Digraph.succ]/[pred]. *)
let succ t n = List.rev (fold_succ (fun acc d l -> (d, l) :: acc) [] t n)

let pred t n = List.rev (fold_pred (fun acc s l -> (s, l) :: acc) [] t n)

let exists_succ p t n =
  let rec go i stop = i < stop && (p t.out_dst.(i) t.out_lab.(i) || go (i + 1) stop) in
  go t.out_off.(n) t.out_off.(n + 1)

let has_edge ?pred t src dst =
  exists_succ
    (fun d l -> d = dst && match pred with None -> true | Some p -> p l)
    t src

let iter_edges f t =
  for src = 0 to n_nodes t - 1 do
    for i = t.out_off.(src) to t.out_off.(src + 1) - 1 do
      f ~src ~dst:t.out_dst.(i) t.out_lab.(i)
    done
  done

(** Snapshot a mutable graph.  O(V + E); the result shares nothing with
    the source. *)
let freeze (g : ('n, 'e) Digraph.t) : ('n, 'e) t =
  let n = Digraph.n_nodes g in
  let m = Digraph.n_edges g in
  let payloads = Array.init n (Digraph.payload g) in
  let out_off = Array.make (n + 1) 0 in
  let in_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    out_off.(i + 1) <- out_off.(i) + List.length (Digraph.succ g i);
    in_off.(i + 1) <- in_off.(i) + List.length (Digraph.pred g i)
  done;
  (* ['e] has no dummy; steal one from any edge (m = 0 needs none). *)
  if m = 0 then
    {
      payloads;
      out_off;
      out_dst = [||];
      out_lab = [||];
      in_off;
      in_src = [||];
      in_lab = [||];
      node_syms = [||];
    }
  else begin
    let some_label =
      let rec find i =
        match Digraph.succ g i with
        | (_, l) :: _ -> l
        | [] -> find (i + 1)
      in
      find 0
    in
    let out_dst = Array.make m (-1) in
    let out_lab = Array.make m some_label in
    let in_src = Array.make m (-1) in
    let in_lab = Array.make m some_label in
    for i = 0 to n - 1 do
      List.iteri
        (fun k (d, l) ->
          out_dst.(out_off.(i) + k) <- d;
          out_lab.(out_off.(i) + k) <- l)
        (Digraph.succ g i);
      List.iteri
        (fun k (s, l) ->
          in_src.(in_off.(i) + k) <- s;
          in_lab.(in_off.(i) + k) <- l)
        (Digraph.pred g i)
    done;
    { payloads; out_off; out_dst; out_lab; in_off; in_src; in_lab;
      node_syms = [||] }
  end

(** Assemble a frozen view from prebuilt planes — the snapshot loader's
    constructor.  Takes ownership of every array; offsets must be
    monotone with [off.(0) = 0] and [off.(n)] equal to the edge count
    (the loader validates this against the file before calling). *)
let of_planes ~payloads ~out_off ~out_dst ~out_lab ~in_off ~in_src ~in_lab
    ~node_syms : ('n, 'e) t =
  let n = Array.length payloads in
  if Array.length out_off <> n + 1 || Array.length in_off <> n + 1 then
    invalid_arg "Csr.of_planes: offset length mismatch";
  if
    Array.length out_dst <> Array.length out_lab
    || Array.length in_src <> Array.length in_lab
    || Array.length out_dst <> Array.length in_src
  then invalid_arg "Csr.of_planes: edge plane length mismatch";
  { payloads; out_off; out_dst; out_lab; in_off; in_src; in_lab; node_syms }

(** Rebuild a mutable {!Digraph} from the frozen view — the inverse of
    {!freeze}, used to thaw a loaded snapshot on first demand.  Preserves
    adjacency order (slice order = cons-list order), copies the payload
    array (so nodes added to the thawed graph never touch the CSR), and
    shares the immutable edge labels. *)
let thaw (t : ('n, 'e) t) ~(dummy : 'n) : ('n, 'e) Digraph.t =
  let n = n_nodes t in
  if n = 0 then Digraph.create ~dummy
  else begin
    let succ = Array.make n [] in
    let pred = Array.make n [] in
    for i = 0 to n - 1 do
      let lo = t.out_off.(i) in
      let l = ref [] in
      for k = t.out_off.(i + 1) - 1 downto lo do
        l := (t.out_dst.(k), t.out_lab.(k)) :: !l
      done;
      succ.(i) <- !l;
      let lo = t.in_off.(i) in
      let l = ref [] in
      for k = t.in_off.(i + 1) - 1 downto lo do
        l := (t.in_src.(k), t.in_lab.(k)) :: !l
      done;
      pred.(i) <- !l
    done;
    Digraph.of_adjacency ~dummy ~payloads:(Array.copy t.payloads) ~succ ~pred
      ~n_edges:(n_edges t)
  end
