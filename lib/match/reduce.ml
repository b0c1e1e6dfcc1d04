let replace_nth l n x = List.mapi (fun i y -> if i = n then x else y) l
let drop_nth l n = List.filteri (fun i _ -> i <> n) l

let ast_candidates (q : Ast.query) : Ast.query list =
  let out = ref [] in
  let push q' = out := q' :: !out in
  List.iteri
    (fun i cl ->
      match cl with
      | Ast.Match ch when ch.Ast.hops <> [] ->
        let hops' = drop_nth ch.Ast.hops (List.length ch.Ast.hops - 1) in
        push
          {
            q with
            Ast.clauses =
              replace_nth q.Ast.clauses i
                (Ast.Match { ch with Ast.hops = hops' });
          }
      | Ast.Where conds when List.length conds > 1 ->
        List.iteri
          (fun j _ ->
            push
              {
                q with
                Ast.clauses =
                  replace_nth q.Ast.clauses i (Ast.Where (drop_nth conds j));
              })
          conds
      | Ast.Match _ | Ast.Where _ | Ast.Not_exists _ -> ())
    q.Ast.clauses;
  if List.length q.Ast.returns > 1 then
    List.iteri
      (fun j _ -> push { q with Ast.returns = drop_nth q.Ast.returns j })
      q.Ast.returns;
  List.rev !out

let candidates (src : string) : string list =
  match Parse.parse_result src with
  | Error _ -> []
  | Ok q ->
    List.filter_map
      (fun q' ->
        match Compile.compile q' with
        | _ -> Some (Pp.query q')
        | exception Compile.Error _ -> None)
      (ast_candidates q)
