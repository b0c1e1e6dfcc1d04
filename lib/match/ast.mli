(** Typed AST of the textual [MATCH] language — a GPML subset.

    The paper's two languages are *visual*: boxes and circles joined by
    edges, variables made obsolete by node sharing.  This module is the
    textual rendering of the same pattern core, in the shape industry
    standardised for property-graph matching (ISO SQL/PGQ's GPML, the
    Cypher family): a [MATCH] pattern produces a bag of binding rows.

    The concrete syntax is line-oriented — one clause per line — so
    fuzz repros minimize with the same line-dropping shrinker as the
    visual languages:

    {v
    MATCH (b:BOOK)-[]->(t:title)
    MATCH (b)-[:id]->(i)
    WHERE t.value <> "untitled" AND i.value < 100
    NOT EXISTS { (b)-[]->(p:price) }
    RETURN b, t.value
    v}

    Node patterns [(v:Label)] bind complex nodes by label; edge
    patterns are a single arc ([-[]->], [-[e:name]->], [<-[]-]) or a
    regular path over arc names ([-[:a|b*]->], reusing
    {!Gql_lang.Label_re}).  Semantics of a query are the bag of
    projected binding rows, rendered in a canonical sorted order so
    every evaluation route answers byte-identical text. *)

type dir =
  | Out  (** [-[..]->] : the arc leaves the left node *)
  | In

(** What an edge pattern's bracket says about the arc.  [Regex] keeps
    the concrete source text (validated at parse time): printing it back
    verbatim is what makes parse→pp→parse the identity. *)
type espec =
  | Any  (** [[]] — any single arc, whatever its name or kind *)
  | Label of string  (** [[:name]] — one arc named [name] *)
  | Regex of string

type pnode = {
  n_var : string option;  (** binding variable, [None] for [()] *)
  n_label : string option;  (** complex-node label test *)
}

type pedge = {
  e_var : string option;
      (** decorative name; arcs are not bindable, so returning or
          comparing an edge variable is a compile error *)
  e_spec : espec;
  e_dir : dir;
}

(** A linear pattern: a node followed by zero or more (edge, node)
    hops.  Joins are by variable sharing, within and across chains —
    exactly the node sharing of the visual languages. *)
type chain = { head : pnode; hops : (pedge * pnode) list }

type term =
  | Var of string  (** [v.value] — the node's typed value *)
  | Lit of Gql_data.Value.t

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type cond = { lhs : term; op : cmp; rhs : term }

type clause =
  | Match of chain
  | Where of cond list  (** one line, [AND]-joined *)
  | Not_exists of chain

type ret =
  | Node of string  (** [v] — label of a complex node, value of an atom *)
  | Value of string

type query = { clauses : clause list; returns : ret list }
