let max_frame = 64 * 1024 * 1024

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let write_frame (oc : out_channel) (payload : string) : unit =
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  flush oc

let read_frame (ic : in_channel) : string option =
  let buf = Buffer.create 16 in
  let rec header () =
    match input_char ic with
    | '\n' -> Buffer.contents buf
    | '0' .. '9' as c ->
      if Buffer.length buf > 9 then fail "frame length header too long";
      Buffer.add_char buf c;
      header ()
    | c -> fail "bad frame length byte %C" c
    | exception End_of_file ->
      if Buffer.length buf = 0 then raise Exit (* clean EOF *)
      else fail "EOF inside frame length"
  in
  match header () with
  | exception Exit -> None
  | h ->
    let n = int_of_string h in
    if n > max_frame then fail "frame of %d bytes exceeds cap" n;
    (try Some (really_input_string ic n)
     with End_of_file -> fail "EOF inside %d-byte frame" n)

(* ------------------------------------------------------------------ *)
(* Payload shape                                                       *)
(* ------------------------------------------------------------------ *)

(** Split a payload into its head line and body. *)
let split (payload : string) : string * string =
  match String.index_opt payload '\n' with
  | None -> (payload, "")
  | Some i ->
    ( String.sub payload 0 i,
      String.sub payload (i + 1) (String.length payload - i - 1) )

let join head body = if body = "" then head else head ^ "\n" ^ body

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

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

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

(** Split head-line tokens into positional words and [key=val] options. *)
let split_args toks =
  let pos, opts =
    List.partition_map
      (fun t ->
        match String.index_opt t '=' with
        | Some i when i > 0 ->
          Right
            ( String.lowercase_ascii (String.sub t 0 i),
              String.sub t (i + 1) (String.length t - i - 1) )
        | _ -> Left t)
      toks
  in
  (pos, opts)

let opt_schema opts = List.assoc_opt "schema" opts

let opt_deadline opts =
  match List.assoc_opt "deadline" opts with
  | None -> None
  | Some v -> (
    match float_of_string_opt v with
    | Some ms when ms >= 0.0 -> Some ms
    | _ -> fail "bad deadline=%s (milliseconds expected)" v)

let parse_request (payload : string) : request =
  let head, body = split payload in
  match tokens head with
  | [] -> fail "empty request"
  | verb :: rest -> (
    let pos, opts = split_args rest in
    match String.uppercase_ascii verb, pos with
    | "LOAD", [ doc ] -> Load { doc; xml = body }
    | "PREPARE", [ name ] ->
      Prepare { name; schema = opt_schema opts; source = body }
    | "RUN", [ doc ] ->
      if String.trim body = "" then fail "RUN needs a prepared name or a body";
      Run
        {
          doc;
          query = `Source body;
          schema = opt_schema opts;
          deadline_ms = opt_deadline opts;
        }
    | "RUN", [ doc; name ] ->
      Run
        {
          doc;
          query = `Named name;
          schema = opt_schema opts;
          deadline_ms = opt_deadline opts;
        }
    | "EXPLAIN", [ doc ] ->
      if String.trim body = "" then fail "EXPLAIN needs a prepared name or a body";
      Explain { doc; query = `Source body }
    | "EXPLAIN", [ doc; name ] -> Explain { doc; query = `Named name }
    | "STATS", [ doc ] -> Stats { doc }
    | "METRICS", [] -> Metrics
    | "PING", [] -> Ping
    | "QUIT", [] -> Quit
    | v, _ -> fail "bad request %S (wrong verb or arity)" v)

let render_request : request -> string = function
  | Load { doc; xml } -> join (Printf.sprintf "LOAD %s" doc) xml
  | Prepare { name; schema; source } ->
    let head =
      match schema with
      | None -> Printf.sprintf "PREPARE %s" name
      | Some s -> Printf.sprintf "PREPARE %s schema=%s" name s
    in
    join head source
  | Run { doc; query; schema; deadline_ms } ->
    let head = Buffer.create 32 in
    Buffer.add_string head "RUN ";
    Buffer.add_string head doc;
    (match query with
    | `Named n ->
      Buffer.add_char head ' ';
      Buffer.add_string head n
    | `Source _ -> ());
    Option.iter
      (fun s -> Buffer.add_string head (Printf.sprintf " schema=%s" s))
      schema;
    Option.iter
      (fun ms -> Buffer.add_string head (Printf.sprintf " deadline=%g" ms))
      deadline_ms;
    let body = match query with `Named _ -> "" | `Source s -> s in
    join (Buffer.contents head) body
  | Explain { doc; query = `Named n } -> Printf.sprintf "EXPLAIN %s %s" doc n
  | Explain { doc; query = `Source s } -> join (Printf.sprintf "EXPLAIN %s" doc) s
  | Stats { doc } -> Printf.sprintf "STATS %s" doc
  | Metrics -> "METRICS"
  | Ping -> "PING"
  | Quit -> "QUIT"

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type response =
  | Ok_ of { info : string; body : string }
  | Err of string
  | Timeout of { elapsed_ms : float }

let render_response : response -> string = function
  | Ok_ { info; body } ->
    join (if info = "" then "OK" else "OK " ^ info) body
  | Err msg ->
    (* the message must stay on the head line *)
    "ERR " ^ String.map (function '\n' -> ' ' | c -> c) msg
  | Timeout { elapsed_ms } -> Printf.sprintf "TIMEOUT %.1f" elapsed_ms

let parse_response (payload : string) : response =
  let head, body = split payload in
  match tokens head with
  | "OK" :: rest -> Ok_ { info = String.concat " " rest; body }
  | "ERR" :: rest -> Err (String.concat " " rest)
  | [ "TIMEOUT"; ms ] -> Timeout { elapsed_ms = float_of_string ms }
  | _ -> fail "bad response head %S" head
