type dir =
  | Out
  | In

type espec =
  | Any
  | Label of string
  | Regex of string

type pnode = {
  n_var : string option;
  n_label : string option;
}

type pedge = {
  e_var : string option;
  e_spec : espec;
  e_dir : dir;
}

type chain = { head : pnode; hops : (pedge * pnode) list }

type term =
  | Var of string
  | Lit of Gql_data.Value.t

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type cond = { lhs : term; op : cmp; rhs : term }

type clause =
  | Match of chain
  | Where of cond list
  | Not_exists of chain

type ret =
  | Node of string
  | Value of string

type query = { clauses : clause list; returns : ret list }
