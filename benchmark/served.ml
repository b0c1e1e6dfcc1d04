(** The served run: spawn [gql serve], drive it over a Unix socket from
    client threads that each hold one connection, and read the counters
    the server and the kernel keep about it. *)

open Fixtures
module Client = Gql_server.Client

let now = Unix.gettimeofday

(* Relative to the working directory: a Unix socket path is limited to
   about 100 bytes, and the checkout path may be long. *)
let socket = "gql.sock"

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

(** Spawn [exe serve] and wait until it is ready: every [-d] file is
    registered (the server loads them before it listens) and PING
    answers.  Returns the server process and the seconds that took. *)
let spawn ~exe ~args : Proc.t * float =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log = Unix.openfile "server.log" [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let t0 = now () in
  let server =
    Proc.track
      (Unix.create_process exe
         (Array.of_list (exe :: "serve" :: "--socket" :: socket :: args))
         Unix.stdin log log)
  in
  Unix.close log;
  let rec ready () =
    match Client.connect_unix socket with
    | c ->
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          ignore (ok (Client.ping c));
          ignore (Client.quit c))
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if Proc.exited server then failwith "gql serve exited during set-up (see server.log)";
      if now () -. t0 > 120.0 then failwith "gql serve not ready after 120 s";
      Unix.sleepf 0.001;
      ready ()
  in
  ready ();
  (server, now () -. t0)

(** The server's METRICS counters. *)
let metrics conn : (string * float) list =
  let _, body = ok (Client.metrics conn) in
  List.filter_map
    (fun (k, v) -> Option.map (fun f -> (k, f)) (float_of_string_opt v))
    (Gql_server.Metrics.parse_body body)

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Answered  (** OK with the expected body, or an expected TIMEOUT *)
  | Late  (** TIMEOUT where an answer was due *)
  | Wrong  (** OK with a body that is not the expected one *)
  | Failed of string  (** ERR, or the exchange itself failed *)

let info_field info key =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
        float_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' info)

(** Judge one response.  [variants] are the document variants the
    request may have been evaluated on.  Returns the outcome, the
    server-reported milliseconds and the MATCH row count. *)
let judge (r : req) ~variants (resp : Gql_server.Protocol.response) =
  match resp with
  | Gql_server.Protocol.Ok_ { info; body } ->
    let right =
      r.lang = Load || List.exists (fun v -> String.equal r.expect.(v) body) variants
    in
    ( (if right then Answered else Wrong),
      Option.value ~default:nan (info_field info "ms"),
      Option.value ~default:0.0 (info_field info "rows") )
  | Gql_server.Protocol.Timeout _ -> ((if r.heavy then Answered else Late), nan, 0.0)
  | Gql_server.Protocol.Err m -> (Failed m, nan, 0.0)

(* ------------------------------------------------------------------ *)
(* Document variants under reloads                                     *)
(* ------------------------------------------------------------------ *)

(* Per document, how many LOADs were sent and how many answered.  Every
   LOAD flips the document to its other variant, starting from 0.  A
   read that saw no LOAD in flight or completed between its send and
   its answer must match the current variant; one that overlapped a
   LOAD may match either. *)
module Epochs = struct
  type t = { m : Mutex.t; sent : (string, int) Hashtbl.t; done_ : (string, int) Hashtbl.t }

  let create () = { m = Mutex.create (); sent = Hashtbl.create 4; done_ = Hashtbl.create 4 }

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let get tbl doc = Option.value ~default:0 (Hashtbl.find_opt tbl doc)
  let bump tbl doc = Hashtbl.replace tbl doc (get tbl doc + 1)
  let read t doc = locked t (fun () -> (get t.sent doc, get t.done_ doc))
  let load_sent t doc = locked t (fun () -> bump t.sent doc)
  let load_done t doc = locked t (fun () -> bump t.done_ doc)

  let variants ~before ~after =
    match before, after with
    | (s, d), (s', d') when s = d && (s, d) = (s', d') -> [ d mod 2 ]
    | _ -> [ 0; 1 ]
end

(* ------------------------------------------------------------------ *)
(* Exchanges and loops                                                 *)
(* ------------------------------------------------------------------ *)

type sample = {
  req : req;
  due : float;  (** when it was due: its send time in a closed loop *)
  sent : float;
  recv : float;
  outcome : outcome;
  server_ms : float;  (** the server's own [ms=], nan when absent *)
  rows : float;
}

let exchange epochs conn ~due (r : req) : sample =
  if r.lang = Load then Epochs.load_sent epochs r.doc;
  let before = Epochs.read epochs r.doc in
  let sent = now () in
  let resp =
    match Client.roundtrip conn r.payload with
    | p -> Ok (Gql_server.Protocol.parse_response p)
    | exception e -> Error (Printexc.to_string e)
  in
  let recv = now () in
  let due = if Float.is_nan due then sent else due in
  match resp with
  | Error m -> { req = r; due; sent; recv; outcome = Failed m; server_ms = nan; rows = 0.0 }
  | Ok resp ->
    if r.lang = Load then Epochs.load_done epochs r.doc;
    let variants = Epochs.variants ~before ~after:(Epochs.read epochs r.doc) in
    let outcome, server_ms, rows = judge r ~variants resp in
    { req = r; due; sent; recv; outcome; server_ms; rows }

let in_threads conns f =
  let out = Array.make (Array.length conns) [] in
  let threads =
    Array.mapi (fun k conn -> Thread.create (fun () -> out.(k) <- f k conn) ()) conns
  in
  Array.iter Thread.join threads;
  List.concat (Array.to_list out)

(** Open loop: request [i] of [schedule] is due at [t0 + offset] and is
    sent by thread [i mod threads] on that thread's connection, at its
    due time or as soon as the thread is free.  Returns the samples and
    the window start. *)
let open_loop epochs conns (schedule : (float * req) array) =
  let t0 = now () +. 0.02 in
  let n = Array.length conns in
  let samples =
    in_threads conns (fun k conn ->
        let acc = ref [] in
        Array.iteri
          (fun i (offset, r) ->
            if i mod n = k then begin
              let due = t0 +. offset in
              let wait = due -. now () in
              if wait > 0.0 then Unix.sleepf wait;
              acc := exchange epochs conn ~due r :: !acc
            end)
          schedule;
        !acc)
  in
  (samples, t0)

(** Closed loop: client [k] sends [next k ()] as soon as its previous
    answer arrives, until [seconds] have passed and it has sent a whole
    number of [round]s. *)
let closed_loop epochs conns ~seconds ~round (next : int -> unit -> req) =
  let t0 = now () in
  let t_end = t0 +. seconds in
  let samples =
    in_threads conns (fun k conn ->
        let draw = next k in
        let rec go acc sent =
          if now () >= t_end && sent mod round = 0 then acc
          else go (exchange epochs conn ~due:nan (draw ()) :: acc) (sent + 1)
        in
        go [] 0)
  in
  (samples, t0)
