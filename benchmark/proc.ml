(** Child processes the benchmark starts, and what Linux's /proc says
    about a process.  Every child is tracked until it has been reaped,
    so an exit path can stop them all. *)

type t = { pid : int; mutable status : Unix.process_status option }

let live : t list ref = ref []

let track pid =
  let p = { pid; status = None } in
  live := p :: !live;
  p

let rec wait p =
  match p.status with
  | Some s -> s
  | None -> (
    match Unix.waitpid [] p.pid with
    | _, s ->
      p.status <- Some s;
      live := List.filter (fun q -> q != p) !live;
      s
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait p)

let exited p =
  p.status <> None
  ||
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> false
  | _, s ->
    p.status <- Some s;
    live := List.filter (fun q -> q != p) !live;
    true

let stop p =
  if p.status = None then (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (wait p)

let stop_all () = List.iter stop !live

(** Run [f] in a forked child, wait for it and return its result, passed
    back marshalled through a file in the working directory.  Whatever
    [f] allocates, and every domain it starts, dies with the child.
    OCaml cannot fork a process that has started a domain, so all engine
    work runs in children like this one and this process starts none. *)
let in_child f =
  let file = "child.bin" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let code =
      match f () with
      | v ->
        Out_channel.with_open_bin file (fun oc -> Marshal.to_channel oc v []);
        0
      | exception e ->
        prerr_endline (Printexc.to_string e);
        2
    in
    Unix._exit code
  | pid -> (
    match wait (track pid) with
    | Unix.WEXITED 0 ->
      let v = In_channel.with_open_bin file Marshal.from_channel in
      Sys.remove file;
      v
    | _ -> failwith "a child process failed")

(* ------------------------------------------------------------------ *)
(* /proc                                                               *)
(* ------------------------------------------------------------------ *)

let read pid file =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/%s" pid file) In_channel.input_all

(** A [kB] field of /proc/<pid>/status ([VmHWM], [VmRSS]), in MB. *)
let status_mb pid key =
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ k; v ] when k = key -> Scanf.sscanf v " %d" (fun kb -> Some (float_of_int kb /. 1024.0))
      | _ -> None)
    (String.split_on_char '\n' (read pid "status"))
  |> Option.value ~default:0.0

(** Call [f] every [period] seconds on a thread of its own, from now
    until the returned function is called; that returns the values. *)
let sample period f =
  let stop = Atomic.make false and values = ref [] in
  let t =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          values := f () :: !values;
          Thread.delay period
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join t;
    !values

(** User plus system CPU seconds of a process, all threads, from
    /proc/<pid>/stat (in clock ticks of 1/100 s, Linux's USER_HZ). *)
let cpu_s pid =
  let stat = read pid "stat" in
  let after_comm = String.rindex stat ')' + 2 in
  match
    String.split_on_char ' ' (String.sub stat after_comm (String.length stat - after_comm))
  with
  | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
    (float_of_string utime +. float_of_string stime) /. 100.0
  | _ -> failwith "unreadable /proc stat"
