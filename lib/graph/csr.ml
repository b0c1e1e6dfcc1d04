type ('n, 'e) t = {
  payloads : 'n array;
  out_off : int array;
  out_dst : int array;
  out_lab : 'e array;
  in_off : int array;
  in_src : int array;
  in_lab : 'e array;
  mutable node_syms : int array;
}

let n_nodes t = Array.length t.payloads
let n_edges t = Array.length t.out_dst
let payload t n = t.payloads.(n)

let set_node_syms t (syms : int array) =
  if Array.length syms <> Array.length t.payloads then
    invalid_arg "Csr.set_node_syms: length mismatch";
  t.node_syms <- syms

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

let map_out_labels (f : 'e -> int) t : int array = Array.map f t.out_lab

let map_in_labels (f : 'e -> int) t : int array = Array.map f t.in_lab

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
