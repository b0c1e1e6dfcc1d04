open Gql_data

let bindings ?(index : Index.t option) ?domains (data : Graph.t)
    (c : Compile.t) : int array list =
  let provider = Option.map (fun idx -> Compile.provider idx c) index in
  let acc = ref [] in
  Gql_graph.Homo.iter_embeddings ?provider ?domains c.Compile.pattern
    (Graph.digraph data) ~emit:(fun emb -> acc := Array.copy emb :: !acc);
  List.filter
    (fun emb ->
      List.for_all
        (fun r -> r.Gql_algebra.Planner.r_pred data emb)
        c.Compile.residuals)
    (List.rev !acc)

let bindings_algebra
    ?(planner = fun data job -> Gql_algebra.Planner.build data job)
    ?(index : Index.t option) ?domains (data : Graph.t) (c : Compile.t) :
    int array list =
  let job = Compile.job ?index c in
  let plan = planner data job in
  Gql_algebra.Exec.run ?provider:job.Gql_algebra.Planner.provider ?domains
    data c.Compile.pattern plan

let cell (data : Graph.t) (r : Ast.ret) (node : int) : string =
  match r with
  | Ast.Node _ -> (
    match Graph.kind data node with
    | Graph.Complex l -> l
    | Graph.Atom v -> Value.to_string v)
  | Ast.Value _ -> Value.to_string (Graph.node_value data node)

let header (c : Compile.t) : string =
  String.concat "\t" (List.map (fun (r, _) -> Pp.ret r) c.Compile.ret_cols)

(* Results below this many rows render their lines and sort them as
   strings; larger results of labels first try the ranked path of
   {!render}.  Below it, ranking costs more than it saves. *)
let rank_min_rows = 2048

(* A cell byte <= 0x09 sorts below the tab that joins cells, so the
   order of the joined lines can differ from the cell-by-cell order. *)
let sorts_below_tab s =
  let rec from i = i < String.length s && (String.unsafe_get s i <= '\t' || from (i + 1)) in
  from 0

(* The body of sorted [lines]: [hdr] first, every line newline-ended,
   in one buffer of exact size. *)
let write_lines ~hdr (lines : string list) : string =
  let total =
    List.fold_left (fun a l -> a + String.length l + 1) (String.length hdr + 1) lines
  in
  let out = Bytes.create total in
  let pos = ref 0 in
  let put s =
    Bytes.blit_string s 0 out !pos (String.length s);
    Bytes.set out (!pos + String.length s) '\n';
    pos := !pos + String.length s + 1
  in
  put hdr;
  List.iteri
    (fun i l ->
      if i land 1023 = 0 then Gql_graph.Deadline.check ();
      put l)
    lines;
  Bytes.unsafe_to_string out

(* The body of [n] rows, row [r]'s cells being
   [cell_of_rank.(rk.(r * m + col))]: [hdr] first, cells tab-joined,
   every line newline-ended, in one buffer of exact size. *)
let write_ranks ~hdr ~m ~n (cell_of_rank : string array) (rk : int array) : string =
  let total = ref (String.length hdr + 1 + (n * max m 1)) in
  for x = 0 to (n * m) - 1 do
    total := !total + String.length cell_of_rank.(rk.(x))
  done;
  let out = Bytes.create !total in
  Bytes.blit_string hdr 0 out 0 (String.length hdr);
  Bytes.set out (String.length hdr) '\n';
  let pos = ref (String.length hdr + 1) in
  for i = 0 to n - 1 do
    if i land 1023 = 0 then Gql_graph.Deadline.check ();
    for j = 0 to m - 1 do
      let s = cell_of_rank.(rk.((i * m) + j)) in
      Bytes.blit_string s 0 out !pos (String.length s);
      pos := !pos + String.length s;
      if j < m - 1 then begin
        Bytes.set out !pos '\t';
        incr pos
      end
    done;
    Bytes.set out !pos '\n';
    incr pos
  done;
  Bytes.unsafe_to_string out

(* A returned node that is an atom: its cell is not a label. *)
exception Not_label

(** The canonical result text of a batch: the header line, then one
    line per row — its cells joined by tabs — in ascending
    [String.compare] order of the lines, duplicates kept (bag
    semantics).

    Most results render each line and sort the lines.  A large result
    whose every cell is a complex node's label — a scan of one label
    joined to another — renders each label once and ranks the labels
    by [String.compare]; when its rows arrive in the order of their
    rank tuples (one repeated tuple, say) it is written without a sort.
    Rank-tuple order is the order of the tab-joined lines only when no
    cell holds a byte <= 0x09, which sorts below the joining tab; a
    multi-column result with such a cell, or whose rows are out of
    order, sorts its joined lines.  The body is written into one buffer
    of exact size.  Rendering ticks {!Gql_graph.Deadline} per row,
    checks it once more before the sort, and every 1024 rows while
    writing. *)
let render (data : Graph.t) (c : Compile.t) (b : Gql_algebra.Exec.batch) :
    string =
  let cols = Array.of_list c.Compile.ret_cols in
  let m = Array.length cols in
  let n = b.Gql_algebra.Exec.rows and w = b.Gql_algebra.Exec.width in
  let bd = b.Gql_algebra.Exec.data in
  (* [line r j] is row [r]'s cell in column [j]; lists sort faster
     than arrays here ([List.sort] against [Array.stable_sort]) *)
  let sorted_lines line =
    let rec cells r j acc = if j < 0 then acc else cells r (j - 1) (line r j :: acc) in
    let rec lines r acc =
      if r < 0 then acc
      else begin
        Gql_graph.Deadline.tick ();
        lines (r - 1) (String.concat "\t" (cells r (m - 1) []) :: acc)
      end
    in
    let lines = lines (n - 1) [] in
    Gql_graph.Deadline.check ();
    write_lines ~hdr:(header c) (List.sort String.compare lines)
  in
  let cell_line r j =
    let ret, i = cols.(j) in
    cell data ret bd.((r * w) + i)
  in
  let node_cols = Array.for_all (function Ast.Node _, _ -> true | Ast.Value _, _ -> false) cols in
  if n < rank_min_rows || not node_cols then sorted_lines cell_line
  else begin
    (* label ids in order of first sight; a per-column cache skips the
       table while a column repeats its label (a snapshot's labels are
       shared strings) *)
    let ids = Hashtbl.create 16 in
    let last = Array.make m "" and last_id = Array.make m (-1) in
    let label_id j node =
      match Graph.kind data node with
      | Graph.Atom _ -> raise_notrace Not_label
      | Graph.Complex l ->
        if last_id.(j) >= 0 && l == last.(j) then last_id.(j)
        else begin
          let id =
            match Hashtbl.find_opt ids l with
            | Some id -> id
            | None ->
              let id = Hashtbl.length ids in
              Hashtbl.add ids l id;
              id
          in
          last.(j) <- l;
          last_id.(j) <- id;
          id
        end
    in
    match
      let rk = Array.make (n * m) 0 in
      for r = 0 to n - 1 do
        Gql_graph.Deadline.tick ();
        for j = 0 to m - 1 do
          rk.((r * m) + j) <- label_id j bd.((r * w) + snd cols.(j))
        done
      done;
      rk
    with
    | exception Not_label -> sorted_lines cell_line
    | rk ->
      Gql_graph.Deadline.check ();
      (* distinct labels, so ranks are positions in sorted order *)
      let cell_of_rank = Array.of_seq (Hashtbl.to_seq_keys ids) in
      Array.sort String.compare cell_of_rank;
      let rank = Array.make (Array.length cell_of_rank) 0 in
      Array.iteri (fun r l -> rank.(Hashtbl.find ids l) <- r) cell_of_rank;
      for x = 0 to (n * m) - 1 do
        rk.(x) <- rank.(rk.(x))
      done;
      let in_order =
        let r = ref 1 and ok = ref true in
        while !ok && !r < n do
          let o = !r * m in
          let j = ref 0 in
          while !j < m && rk.(o - m + !j) = rk.(o + !j) do
            incr j
          done;
          ok := !j = m || rk.(o - m + !j) < rk.(o + !j);
          incr r
        done;
        !ok
      in
      if in_order && not (m >= 2 && Array.exists sorts_below_tab cell_of_rank) then
        write_ranks ~hdr:(header c) ~m ~n cell_of_rank rk
      else sorted_lines (fun r j -> cell_of_rank.(rk.((r * m) + j)))
  end

let body (data : Graph.t) (c : Compile.t) (embs : int array list) : string =
  render data c
    (Gql_algebra.Exec.of_bindings
       ~width:(Array.length c.Compile.pattern.Gql_graph.Homo.p_nodes)
       embs)

type prepared = {
  pr_compiled : Compile.t;
  pr_plan : Gql_algebra.Plan.t;
  pr_provider : (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider option;
}

let prepare ?(index : Index.t option) (data : Graph.t) (q : Ast.query) :
    prepared =
  let c = Compile.compile q in
  let job = Compile.job ?index c in
  {
    pr_compiled = c;
    pr_plan = Gql_algebra.Planner.build data job;
    pr_provider = job.Gql_algebra.Planner.provider;
  }

let run_prepared ?domains (data : Graph.t) (p : prepared) : string * int =
  let b =
    Gql_algebra.Exec.run_batch ?provider:p.pr_provider ?domains data
      p.pr_compiled.Compile.pattern p.pr_plan
  in
  (render data p.pr_compiled b, b.Gql_algebra.Exec.rows)

let run ?(index : Index.t option) ?domains (data : Graph.t) (q : Ast.query) :
    string * int =
  run_prepared ?domains data (prepare ?index data q)

let explain ?(index : Index.t option) (data : Graph.t) (q : Ast.query) : string =
  Gql_algebra.Plan.to_string (prepare ?index data q).pr_plan
