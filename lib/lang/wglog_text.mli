(** Textual concrete syntax for WG-Log.

    Line-based, like the XML-GL front-end.  Roles follow the paper's
    colouring: plain declarations are red (query); [cnode]/[cedge]/
    [collect] are green (construction).

    {v
    wglog
    rule
      node r Restaurant          # red entity box
      node x any                 # untyped box
      value v where > 100        # red value rectangle with condition
      value w where /[hH]olland/
      const k "fixed"            # constant value node
      cnode L rest-list          # green (derived) entity
      cvalue M "new"             # green constant value node
      edge r offers m            # red relation edge
      edge m price v             # red slot edge (target is a value node)
      negedge d index e          # crossed-out edge
      pathedge d (link|index)+ e # dashed regular path edge; '.' = any
      cedge L member r           # green edge, derived per embedding
      collect L member r         # green aggregation (triangle)
    end
    v} *)

(** Message and line number: the implementation rebinds {!Lex.Error},
    so either name catches the other. *)
exception Parse_error of string * int

val parse_program :
  ?schema:Gql_wglog.Schema.t -> string -> Gql_wglog.Ast.program

val parse_program_result :
  ?schema:Gql_wglog.Schema.t ->
  string -> (Gql_wglog.Ast.program, string) result
