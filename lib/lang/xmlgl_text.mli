(** Textual concrete syntax for XML-GL.

    A visual language needs a serialisation; this one is line-based — one
    declaration per line, exactly the information a diagram stores.  The
    grammar (# starts a comment):

    {v
    xmlgl
    result <name>              # optional result root, default "result"
    rule
    query
      node $b elem BOOK        # labelled box
      node $w elem *           # wildcard box
      node $r elem /B.*/       # regex-named box
      node $c content [where <pred>]   # hollow circle
      node $a attr [where <pred>]      # filled circle
      edge $b $c [ordered] [pos <n>]   # containment
      deep $b $w               # descendant at any depth
      attredge $b isbn $a      # attribute edge, labelled
      refedge $b $x            # ID/IDREF edge;  refedge $b name $x
      absent $b $w             # negation
    construct
      node r new RESULT        # plain box
      node c copy $b [deep]    # box bound to a query node ([deep] = the asterisk)
      node v value $c          # text from a query node's value
      node k const "text"      # literal text
      node t all $b            # triangle
      node g group $c          # list icon, grouped by $c's value
      root r
      edge r c [attr <name>]   # construction containment / attribute
    end
    v}

    Predicates: [self > 20], [self = "x"], [$other >= self],
    [self contains "a"], [self starts "b"], [self ~ /re/], combined with
    [and], [or], [not] and parentheses; arithmetic with parenthesised
    [(a + b)] operands. *)

(** Message and line number: the implementation rebinds {!Lex.Error},
    so either name catches the other. *)
exception Parse_error of string * int

val parse_program : string -> Gql_xmlgl.Ast.program

val parse_program_result : string -> (Gql_xmlgl.Ast.program, string) result
