type value =
  | Nodeset of int list
  | Num of float
  | Str of string
  | Bool of bool

type context = { idx : Index.t; node : int; position : int; size : int }

exception Eval_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(* --- coercions ------------------------------------------------------ *)

let string_of_value ctx = function
  | Str s -> s
  | Num f ->
    if Float.is_nan f then "NaN"
    else if Float.is_integer f && Float.abs f < 1e15 then
      string_of_int (int_of_float f)
    else string_of_float f
  | Bool b -> string_of_bool b
  | Nodeset [] -> ""
  | Nodeset (n :: _) -> Index.string_value ctx.idx n

let number_of_value ctx v =
  match v with
  | Num f -> f
  | Str s -> (
    match float_of_string_opt (String.trim s) with
    | Some f -> f
    | None -> Float.nan)
  | Bool b -> if b then 1.0 else 0.0
  | Nodeset _ -> (
    match float_of_string_opt (String.trim (string_of_value ctx v)) with
    | Some f -> f
    | None -> Float.nan)

let bool_of_value = function
  | Bool b -> b
  | Num f -> f <> 0.0 && not (Float.is_nan f)
  | Str s -> s <> ""
  | Nodeset ns -> ns <> []

(* --- axes ----------------------------------------------------------- *)

let axis_nodes (idx : Index.t) (axis : Ast.axis) (n : int) : int list =
  let descendants_of n =
    let acc = ref [] in
    let rec go i =
      acc := i :: !acc;
      Array.iter go (Index.children idx i)
    in
    Array.iter go (Index.children idx n);
    List.rev !acc
  in
  match axis with
  | Ast.Self -> [ n ]
  | Ast.Child -> Array.to_list (Index.children idx n)
  | Ast.Descendant -> descendants_of n
  | Ast.Descendant_or_self -> n :: descendants_of n
  | Ast.Parent ->
    let p = Index.parent idx n in
    if p < 0 then [] else [ p ]
  | Ast.Ancestor ->
    let rec up acc i =
      let p = Index.parent idx i in
      if p < 0 then List.rev acc else up (p :: acc) p
    in
    up [] n
  | Ast.Ancestor_or_self ->
    let rec up acc i =
      let p = Index.parent idx i in
      if p < 0 then List.rev acc else up (p :: acc) p
    in
    n :: up [] n
  | Ast.Attribute -> Array.to_list (Index.attrs idx n)
  | Ast.Following_sibling ->
    let p = Index.parent idx n in
    if p < 0 then []
    else
      Array.to_list (Index.children idx p)
      |> List.filter (fun s -> s > n)
  | Ast.Preceding_sibling ->
    let p = Index.parent idx n in
    if p < 0 then []
    else
      Array.to_list (Index.children idx p)
      |> List.filter (fun s -> s < n)
  | Ast.Following ->
    (* document order after n, excluding its own descendants and any
       attribute nodes (per the XPath data model) *)
    let in_subtree = Hashtbl.create 16 in
    let rec mark i =
      Hashtbl.replace in_subtree i ();
      Array.iter mark (Index.children idx i)
    in
    mark n;
    let out = ref [] in
    for m = Index.n_nodes idx - 1 downto n + 1 do
      match Index.data idx m with
      | Index.Attr _ -> ()
      | _ -> if not (Hashtbl.mem in_subtree m) then out := m :: !out
    done;
    !out
  | Ast.Preceding ->
    (* document order before n, excluding ancestors and attributes *)
    let ancestors = Hashtbl.create 8 in
    let rec up i =
      let p = Index.parent idx i in
      if p >= 0 then begin
        Hashtbl.replace ancestors p ();
        up p
      end
    in
    up n;
    let out = ref [] in
    for m = n - 1 downto 0 do
      match Index.data idx m with
      | Index.Attr _ -> ()
      | _ -> if not (Hashtbl.mem ancestors m) then out := m :: !out
    done;
    List.rev !out

let test_matches (idx : Index.t) (axis : Ast.axis) (test : Ast.node_test) n =
  match test, Index.data idx n with
  | Ast.Node_test, _ -> true
  | Ast.Text_test, Index.Txt _ -> true
  | Ast.Text_test, _ -> false
  | Ast.Comment_test, Index.Com _ -> true
  | Ast.Comment_test, _ -> false
  | Ast.Wildcard, Index.Elem _ -> true
  | Ast.Wildcard, Index.Attr _ -> axis = Ast.Attribute
  | Ast.Wildcard, _ -> false
  | Ast.Name nm, Index.Elem { name; _ } -> nm = name
  | Ast.Name nm, Index.Attr { name; _ } -> axis = Ast.Attribute && nm = name
  | Ast.Name _, _ -> false

(* --- evaluation ------------------------------------------------------ *)

let sort_uniq ns = List.sort_uniq compare ns

let rec eval (ctx : context) (e : Ast.expr) : value =
  match e with
  | Ast.Literal s -> Str s
  | Ast.Number f -> Num f
  | Ast.Neg e -> Num (-.number_of_value ctx (eval ctx e))
  | Ast.Path p -> Nodeset (eval_path ctx p)
  | Ast.Call (f, args) -> eval_call ctx f args
  | Ast.Binop (op, a, b) -> (
    match op with
    | Ast.Or -> Bool (bool_of_value (eval ctx a) || bool_of_value (eval ctx b))
    | Ast.And -> Bool (bool_of_value (eval ctx a) && bool_of_value (eval ctx b))
    | Ast.Union -> (
      match eval ctx a, eval ctx b with
      | Nodeset x, Nodeset y -> Nodeset (sort_uniq (x @ y))
      | _ -> err "union requires node-sets")
    | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      Bool (eval_comparison ctx op (eval ctx a) (eval ctx b))
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
      let x = number_of_value ctx (eval ctx a)
      and y = number_of_value ctx (eval ctx b) in
      Num
        (match op with
        | Ast.Add -> x +. y
        | Ast.Sub -> x -. y
        | Ast.Mul -> x *. y
        | Ast.Div -> x /. y
        | Ast.Mod -> Float.rem x y
        | _ -> err "non-arithmetic operator in arithmetic position"))

and eval_comparison ctx op a b =
  (* XPath comparison: node-sets compare existentially. *)
  let cmp_atom op x y =
    match op with
    | Ast.Eq -> x = y
    | Ast.Neq -> x <> y
    | Ast.Lt -> x < y
    | Ast.Le -> x <= y
    | Ast.Gt -> x > y
    | Ast.Ge -> x >= y
    | _ -> err "non-comparison operator in comparison position"
  in
  let num_cmp x y = cmp_atom op (compare x y) (compare 0. 0.) in
  ignore num_cmp;
  match a, b with
  | Nodeset xs, Nodeset ys ->
    List.exists
      (fun x ->
        let sx = Index.string_value ctx.idx x in
        List.exists
          (fun y -> cmp_atom op sx (Index.string_value ctx.idx y))
          ys)
      xs
  | Nodeset xs, other | other, Nodeset xs ->
    let flip =
      match a with Nodeset _ -> false | _ -> true
    in
    List.exists
      (fun x ->
        let sv = Index.string_value ctx.idx x in
        match other, op with
        | _, (Ast.Eq | Ast.Neq) ->
          let o = string_of_value ctx other in
          (* Numeric comparison when the other side is a number. *)
          (match other with
          | Num f ->
            let xv = float_of_string_opt (String.trim sv) in
            (match xv, op with
            | Some xf, Ast.Eq -> xf = f
            | Some xf, Ast.Neq -> xf <> f
            | None, Ast.Eq -> false
            | None, Ast.Neq -> true
            | _ -> err "equality dispatch reached a non-equality operator")
          | _ -> cmp_atom op sv o)
        | _, (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) ->
          let xf =
            match float_of_string_opt (String.trim sv) with
            | Some f -> f
            | None -> Float.nan
          in
          let of' = number_of_value ctx other in
          let x, y = if flip then (of', xf) else (xf, of') in
          (match op with
          | Ast.Lt -> x < y
          | Ast.Le -> x <= y
          | Ast.Gt -> x > y
          | Ast.Ge -> x >= y
          | _ -> err "relational dispatch reached a non-relational operator")
        | _ -> false)
      xs
  | _ -> (
    match op with
    | Ast.Eq | Ast.Neq -> (
      (* booleans > numbers > strings in coercion priority *)
      match a, b with
      | Bool _, _ | _, Bool _ ->
        cmp_atom op (bool_of_value a) (bool_of_value b)
      | Num _, _ | _, Num _ ->
        cmp_atom op (number_of_value ctx a) (number_of_value ctx b)
      | _ -> cmp_atom op (string_of_value ctx a) (string_of_value ctx b))
    | _ -> cmp_atom op (number_of_value ctx a) (number_of_value ctx b))

and eval_path ctx (p : Ast.path) : int list =
  let start = if p.absolute then [ ctx.idx.Index.root ] else [ ctx.node ] in
  (* An absolute path starts at the (virtual) root: step selection from
     the document node means the root element is reachable via child. *)
  let start_set =
    if p.absolute then
      match p.steps with
      | { axis = Ast.Child | Ast.Descendant | Ast.Descendant_or_self; _ } :: _ ->
        [ -1 ]  (* virtual document node *)
      | _ -> start
    else start
  in
  List.fold_left (fun ns step -> eval_step ctx step ns) start_set p.steps

and eval_step ctx (s : Ast.step) (nodes : int list) : int list =
  let idx = ctx.idx in
  let selected =
    List.concat_map
      (fun n ->
        let base =
          if n = -1 then
            (* virtual document node *)
            match s.axis with
            | Ast.Child -> [ idx.Index.root ]
            | Ast.Descendant ->
              idx.Index.root :: axis_nodes idx Ast.Descendant idx.Index.root
            | Ast.Descendant_or_self ->
              (* the document node is its own descendant-or-self: keep the
                 virtual node so a following child:: step can still reach
                 the root element (e.g. //c with a root named c) *)
              (-1) :: idx.Index.root
              :: axis_nodes idx Ast.Descendant idx.Index.root
            | Ast.Self -> [ -1 ]
            | _ -> []
          else axis_nodes idx s.axis n
        in
        List.filter
          (fun m -> m = -1 || test_matches idx s.axis s.test m)
          base)
      nodes
  in
  let selected = sort_uniq selected in
  (* Apply predicates with position semantics. *)
  List.fold_left
    (fun ns pred ->
      let size = List.length ns in
      List.filteri
        (fun i n ->
          if n = -1 then true
          else
            let v =
              eval { ctx with node = n; position = i + 1; size } pred
            in
            match v with
            | Num f -> int_of_float f = i + 1
            | v -> bool_of_value v)
        ns)
    selected s.predicates

and eval_call ctx f args : value =
  let arg i =
    match List.nth_opt args i with
    | Some e -> eval ctx e
    | None -> err "function %s: missing argument %d" f i
  in
  let str i = string_of_value ctx (arg i) in
  let num i = number_of_value ctx (arg i) in
  let default_to_context () =
    if args = [] then Nodeset [ ctx.node ] else arg 0
  in
  match f, List.length args with
  | "position", 0 -> Num (float_of_int ctx.position)
  | "last", 0 -> Num (float_of_int ctx.size)
  | "count", 1 -> (
    match arg 0 with
    | Nodeset ns -> Num (float_of_int (List.length ns))
    | _ -> err "count() expects a node-set")
  | "not", 1 -> Bool (not (bool_of_value (arg 0)))
  | "true", 0 -> Bool true
  | "false", 0 -> Bool false
  | "boolean", 1 -> Bool (bool_of_value (arg 0))
  | "number", _ -> Num (number_of_value ctx (default_to_context ()))
  | "string", _ -> Str (string_of_value ctx (default_to_context ()))
  | "name", _ -> (
    match default_to_context () with
    | Nodeset (n :: _) -> Str (Option.value ~default:"" (Index.name ctx.idx n))
    | Nodeset [] -> Str ""
    | _ -> err "name() expects a node-set")
  | "concat", n when n >= 2 ->
    Str (String.concat "" (List.init n str))
  | "contains", 2 ->
    let hay = str 0 and needle = str 1 in
    let hl = String.length hay and nl = String.length needle in
    let rec find i =
      if i + nl > hl then false
      else if String.sub hay i nl = needle then true
      else find (i + 1)
    in
    Bool (nl = 0 || find 0)
  | "starts-with", 2 ->
    let s = str 0 and p = str 1 in
    Bool
      (String.length p <= String.length s
      && String.sub s 0 (String.length p) = p)
  | "string-length", _ ->
    Num (float_of_int (String.length (string_of_value ctx (default_to_context ()))))
  | "normalize-space", _ ->
    let s = string_of_value ctx (default_to_context ()) in
    let words =
      String.split_on_char ' ' (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
      |> List.filter (fun w -> w <> "")
    in
    Str (String.concat " " words)
  | "substring", 2 ->
    let s = str 0 in
    let start = int_of_float (num 1) - 1 in
    let start = max 0 start in
    if start >= String.length s then Str ""
    else Str (String.sub s start (String.length s - start))
  | "substring", 3 ->
    let s = str 0 in
    let start = int_of_float (num 1) - 1 in
    let len = int_of_float (num 2) in
    let start' = max 0 start in
    let len' = min (String.length s - start') (len - (start' - start)) in
    if len' <= 0 || start' >= String.length s then Str ""
    else Str (String.sub s start' len')
  | "sum", 1 -> (
    match arg 0 with
    | Nodeset ns ->
      Num
        (List.fold_left
           (fun acc n ->
             acc
             +.
             match float_of_string_opt (String.trim (Index.string_value ctx.idx n)) with
             | Some f -> f
             | None -> Float.nan)
           0.0 ns)
    | _ -> err "sum() expects a node-set")
  | "floor", 1 -> Num (Float.floor (num 0))
  | "ceiling", 1 -> Num (Float.ceil (num 0))
  | "round", 1 -> Num (Float.round (num 0))
  | _ -> err "unknown function %s/%d" f (List.length args)

let eval_expr (idx : Index.t) (e : Ast.expr) : value =
  eval { idx; node = idx.Index.root; position = 1; size = 1 } e

let select (idx : Index.t) (e : Ast.expr) : int list =
  match eval_expr idx e with
  | Nodeset ns -> List.filter (fun n -> n >= 0) ns
  | _ -> raise (Eval_error "expression does not yield a node-set")

let select_string (idx : Index.t) (src : string) : int list =
  select idx (Parse.expr src)
