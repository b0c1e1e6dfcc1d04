(** The wire protocol of [gql serve].

    Every message — request or response — is one *frame*:

    {v
      frame    ::=  length '\n' payload
      length   ::=  decimal byte count of the payload
    v}

    The payload is text.  Its first line is the *head*; the remaining
    bytes (if any) are the *body*.  Request heads:

    {v
      LOAD <doc> [key=val ...]            body = XML source
      PREPARE <name> [schema=S]           body = query source (header line
                                          'xmlgl' | 'wglog' selects the
                                          language, as for `gql run`)
      RUN <doc> <name> [deadline=MS]      run a prepared query
      RUN <doc> [deadline=MS] [schema=S]  body = query source (one-shot)
      EXPLAIN <doc> <name>                physical plan of a prepared query
      EXPLAIN <doc>                       body = query source
      STATS <doc>                         snapshot statistics
      METRICS                             server counters and latencies
      PING                                liveness probe
      QUIT                                close the connection
    v}

    Response heads are ["OK ..."], ["ERR <message>"] or
    ["TIMEOUT <elapsed-ms>"], followed by the result body (query output,
    plan text, statistics).  Verbs are case-insensitive; [key=val]
    arguments may appear in any order after the positional ones.

    Frames are capped at {!max_frame} bytes; an over-long length header
    or payload is a protocol error, not an allocation. *)

exception Protocol_error of string

val write_frame : out_channel -> string -> unit

(** [None] on a clean EOF at a frame boundary. *)
val read_frame : in_channel -> string option

type request =
  | Load of { doc : string; xml : string }
  | Prepare of { name : string; schema : string option; source : string }
  | Run of {
      doc : string;
      query : [ `Named of string | `Source of string ];
      schema : string option;
      deadline_ms : float option;
    }
  | Explain of { doc : string; query : [ `Named of string | `Source of string ] }
  | Stats of { doc : string }
  | Metrics
  | Ping
  | Quit

val parse_request : string -> request

val render_request : request -> string

type response =
  | Ok_ of { info : string; body : string }
  | Err of string
  | Timeout of { elapsed_ms : float }

val render_response : response -> string

val parse_response : string -> response
