type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let of_fd fd =
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let connect (addr : Unix.sockaddr) : t =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  of_fd fd

let connect_unix path = connect (Unix.ADDR_UNIX path)

let connect_tcp ~host ~port =
  let inet =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  connect (Unix.ADDR_INET (inet, port))

let close t =
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let roundtrip t (payload : string) : string =
  Protocol.write_frame t.oc payload;
  match Protocol.read_frame t.ic with
  | Some response -> response
  | None -> raise (Protocol.Protocol_error "server closed the connection")

let request t (req : Protocol.request) : Protocol.response =
  Protocol.parse_response (roundtrip t (Protocol.render_request req))

(* Convenience wrappers returning [Ok (info, body)] or [Error message];
   a [TIMEOUT] surfaces as [Error]. *)

let lift = function
  | Protocol.Ok_ { info; body } -> Ok (info, body)
  | Protocol.Err msg -> Error msg
  | Protocol.Timeout { elapsed_ms } ->
    Error (Printf.sprintf "timeout after %.1f ms" elapsed_ms)

let load t ~doc xml = lift (request t (Protocol.Load { doc; xml }))

let prepare t ~name ?schema source =
  lift (request t (Protocol.Prepare { name; schema; source }))

let run t ~doc ?schema ?deadline_ms query =
  lift (request t (Protocol.Run { doc; query; schema; deadline_ms }))

let explain t ~doc query = lift (request t (Protocol.Explain { doc; query }))
let stats t ~doc = lift (request t (Protocol.Stats { doc }))
let metrics t = lift (request t Protocol.Metrics)
let ping t = lift (request t Protocol.Ping)

let quit t =
  let r = lift (request t Protocol.Quit) in
  close t;
  r
