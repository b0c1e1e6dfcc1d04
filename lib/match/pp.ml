let lit (v : Gql_data.Value.t) : string =
  match v with
  | Gql_data.Value.String s -> "\"" ^ s ^ "\""
  | v -> Gql_data.Value.to_string v

let term = function
  | Ast.Var v -> v ^ ".value"
  | Ast.Lit v -> lit v

let cmp = function
  | Ast.Eq -> "="
  | Ast.Ne -> "<>"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="

let cond (c : Ast.cond) =
  Printf.sprintf "%s %s %s" (term c.Ast.lhs) (cmp c.Ast.op) (term c.Ast.rhs)

let pnode (n : Ast.pnode) =
  let v = Option.value n.Ast.n_var ~default:"" in
  let l = match n.Ast.n_label with Some l -> ":" ^ l | None -> "" in
  "(" ^ v ^ l ^ ")"

let pedge (e : Ast.pedge) =
  let v = Option.value e.Ast.e_var ~default:"" in
  let s =
    match e.Ast.e_spec with
    | Ast.Any -> ""
    | Ast.Label l -> ":" ^ l
    | Ast.Regex r -> ":" ^ r
  in
  match e.Ast.e_dir with
  | Ast.Out -> "-[" ^ v ^ s ^ "]->"
  | Ast.In -> "<-[" ^ v ^ s ^ "]-"

let chain (c : Ast.chain) =
  pnode c.Ast.head
  ^ String.concat ""
      (List.map (fun (e, n) -> pedge e ^ pnode n) c.Ast.hops)

let ret = function Ast.Node v -> v | Ast.Value v -> v ^ ".value"

let clause = function
  | Ast.Match c -> "MATCH " ^ chain c
  | Ast.Where cs -> "WHERE " ^ String.concat " AND " (List.map cond cs)
  | Ast.Not_exists c -> "NOT EXISTS { " ^ chain c ^ " }"

let query (q : Ast.query) =
  String.concat "\n"
    (List.map clause q.Ast.clauses
    @ [ "RETURN " ^ String.concat ", " (List.map ret q.Ast.returns) ])
  ^ "\n"
