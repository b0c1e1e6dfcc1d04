let topological_sort g =
  let n = Digraph.n_nodes g in
  let indeg = Array.make n 0 in
  Digraph.iter_edges (fun ~src:_ ~dst _ -> indeg.(dst) <- indeg.(dst) + 1) g;
  let queue = Queue.create () in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then Queue.add u queue
  done;
  let order = ref [] in
  let taken = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    incr taken;
    order := u :: !order;
    List.iter
      (fun (v, _) ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      (Digraph.succ g u)
  done;
  if !taken = n then Some (List.rev !order) else None

let is_acyclic g = topological_sort g <> None

let scc g =
  let n = Digraph.n_nodes g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let strongconnect v =
    (* Recursive with an explicit work list encoded in frames. *)
    let frames = ref [ (v, ref (List.map fst (Digraph.succ g v))) ] in
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (u, rest) :: tl -> (
        match !rest with
        | w :: more ->
          rest := more;
          if index.(w) = -1 then begin
            index.(w) <- !next_index;
            lowlink.(w) <- !next_index;
            incr next_index;
            stack := w :: !stack;
            on_stack.(w) <- true;
            frames := (w, ref (List.map fst (Digraph.succ g w))) :: !frames
          end
          else if on_stack.(w) then lowlink.(u) <- min lowlink.(u) index.(w)
        | [] ->
          if lowlink.(u) = index.(u) then begin
            let rec pop acc =
              match !stack with
              | [] -> acc
              | w :: rest' ->
                stack := rest';
                on_stack.(w) <- false;
                if w = u then w :: acc else pop (w :: acc)
            in
            components := pop [] :: !components
          end;
          frames := tl;
          (match tl with
          | (parent, _) :: _ -> lowlink.(parent) <- min lowlink.(parent) lowlink.(u)
          | [] -> ()))
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  List.rev !components
