let total_capacity = Domain.recommended_domain_count ()

(* Spare-domain budget: how many domains beyond the already-running
   ones the machine can absorb.  May go negative under explicit
   oversubscription; auto sizing clamps at zero. *)
let budget = Atomic.make (max 0 (total_capacity - 1))

let charge () = ignore (Atomic.fetch_and_add budget (-1))
let refund () = ignore (Atomic.fetch_and_add budget 1)

let charged f =
  charge ();
  Fun.protect ~finally:refund f

let auto_domains () = 1 + max 0 (Atomic.get budget)

(* Default domain count for engine entry points that were not given an
   explicit [~domains]: a programmatic override ({!set_default}, the
   CLI's [--domains]) wins, then the [GQL_DOMAINS] environment variable
   (how CI runs the whole test suite in parallel mode), then 1.
   [env_domains] is computed once at module initialisation so no lazy
   cell is forced concurrently from worker domains. *)
let env_domains =
  match Sys.getenv_opt "GQL_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)
  | None -> 1

let override = Atomic.make 0 (* 0 = unset *)

let set_default n = Atomic.set override (max 1 n)

let default_domains () =
  match Atomic.get override with 0 -> env_domains | n -> n

(* ------------------------------------------------------------------ *)
(* Work-size gating                                                    *)
(* ------------------------------------------------------------------ *)

(** Calibration constant: jobs whose [?cost] estimate (in candidate x
    pattern-size units — roughly "predicate tests this job will run")
    falls below the cutoff never fan out.  65536 units ≈ a handful of
    milliseconds of matching on 2020s hardware, comfortably above the
    point where E13's small fixtures lost to fan-out overhead and an
    order of magnitude below the million-node workloads that win.
    Recorded in every E13v2 bench record so the trajectory documents
    the constant it was measured under. *)
let default_cutoff = 65536

let env_cutoff =
  match Sys.getenv_opt "GQL_PAR_CUTOFF" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> Some n
    | _ -> None)
  | None -> None

let cutoff_override = Atomic.make (-1) (* -1 = unset *)

let set_cutoff n = Atomic.set cutoff_override (max 0 n)

let cutoff () =
  match Atomic.get cutoff_override with
  | -1 -> ( match env_cutoff with Some n -> n | None -> default_cutoff)
  | n -> n

(* ------------------------------------------------------------------ *)
(* Scheduler observability                                             *)
(* ------------------------------------------------------------------ *)

type stats = {
  jobs : int;
  chunks : int;
  stolen : int;
  seq_below_cutoff : int;
  seq_nested : int;
  seq_solo : int;
  workers_spawned : int;
  spawn_failures : int;
  saturated : int;
}

let c_jobs = Atomic.make 0
let c_chunks = Atomic.make 0
let c_stolen = Atomic.make 0
let c_seq_below_cutoff = Atomic.make 0
let c_seq_nested = Atomic.make 0
let c_seq_solo = Atomic.make 0
let c_workers_spawned = Atomic.make 0
let c_spawn_failures = Atomic.make 0
let c_saturated = Atomic.make 0

let stats () =
  {
    jobs = Atomic.get c_jobs;
    chunks = Atomic.get c_chunks;
    stolen = Atomic.get c_stolen;
    seq_below_cutoff = Atomic.get c_seq_below_cutoff;
    seq_nested = Atomic.get c_seq_nested;
    seq_solo = Atomic.get c_seq_solo;
    workers_spawned = Atomic.get c_workers_spawned;
    spawn_failures = Atomic.get c_spawn_failures;
    saturated = Atomic.get c_saturated;
  }

let stats_diff ~(before : stats) (after : stats) : stats =
  {
    jobs = after.jobs - before.jobs;
    chunks = after.chunks - before.chunks;
    stolen = after.stolen - before.stolen;
    seq_below_cutoff = after.seq_below_cutoff - before.seq_below_cutoff;
    seq_nested = after.seq_nested - before.seq_nested;
    seq_solo = after.seq_solo - before.seq_solo;
    workers_spawned = after.workers_spawned - before.workers_spawned;
    spawn_failures = after.spawn_failures - before.spawn_failures;
    saturated = after.saturated - before.saturated;
  }

let stats_lines () =
  let s = stats () in
  Printf.sprintf
    "par_jobs=%d\npar_chunks=%d\npar_chunks_stolen=%d\n\
     par_seq_below_cutoff=%d\npar_seq_nested=%d\npar_seq_solo=%d\n\
     par_workers_spawned=%d\npar_spawn_failures=%d\npar_saturated=%d\n\
     par_cutoff=%d\n"
    s.jobs s.chunks s.stolen s.seq_below_cutoff s.seq_nested s.seq_solo
    s.workers_spawned s.spawn_failures s.saturated (cutoff ())

(* ------------------------------------------------------------------ *)
(* The worker pool                                                     *)
(* ------------------------------------------------------------------ *)

(* Worker domains must not fan out again: nested [map_chunks] inside a
   worker runs sequentially on that worker. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* One submitted fan-out.  Chunk claiming ([j_next]) and completion
   ([j_left]) are atomics touched outside the pool lock; [j_seats] — how
   many more workers may join — is plain state under the pool lock.
   [j_run] computes one chunk into the submitter's slot array and never
   raises (exceptions are captured into the slot). *)
type job = {
  j_chunks : int;
  j_next : int Atomic.t;
  j_left : int Atomic.t;
  j_run : int -> unit;
  mutable j_seats : int;
}

type pool = {
  lock : Mutex.t;
  work : Condition.t;  (** workers park here between jobs *)
  finished : Condition.t;  (** submitters wait here for their last chunk *)
  mutable jobs : job list;  (** open jobs, oldest first *)
  mutable idle : int;  (** workers parked or scanning for a job *)
}

let pool =
  {
    lock = Mutex.create ();
    work = Condition.create ();
    finished = Condition.create ();
    jobs = [];
    idle = 0;
  }

(* Claim and run chunks until the job's counter runs out.  Shared by the
   submitter and every seated worker; the last finisher wakes the
   submitter.  [j_run] never raises, so neither does this. *)
let run_chunks ~(stolen : bool) (j : job) =
  let rec loop () =
    let c = Atomic.fetch_and_add j.j_next 1 in
    if c < j.j_chunks then begin
      j.j_run c;
      Atomic.incr c_chunks;
      if stolen then Atomic.incr c_stolen;
      if Atomic.fetch_and_add j.j_left (-1) = 1 then begin
        Mutex.lock pool.lock;
        Condition.broadcast pool.finished;
        Mutex.unlock pool.lock
      end;
      loop ()
    end
  in
  loop ()

let rec worker_loop () =
  Mutex.lock pool.lock;
  let rec find () =
    (* drop jobs whose chunks are all claimed; they finish without us *)
    pool.jobs <-
      List.filter (fun j -> Atomic.get j.j_next < j.j_chunks) pool.jobs;
    match List.find_opt (fun j -> j.j_seats > 0) pool.jobs with
    | Some j -> j
    | None ->
      Condition.wait pool.work pool.lock;
      find ()
  in
  let j = find () in
  j.j_seats <- j.j_seats - 1;
  pool.idle <- pool.idle - 1;
  Mutex.unlock pool.lock;
  run_chunks ~stolen:true j;
  Mutex.lock pool.lock;
  pool.idle <- pool.idle + 1;
  Mutex.unlock pool.lock;
  worker_loop ()

(* Grow the pool (under the pool lock) until [wanted] workers are idle.
   Auto-sized callers never want more than the hardware budget; an
   explicit ~domains beyond it grows the pool once and reuses those
   workers forever after.  A refused spawn is counted, not swallowed:
   the job still completes on fewer domains, but [stats] says so. *)
let ensure_workers wanted =
  (try
     while pool.idle < wanted do
       ignore
         (Domain.spawn (fun () ->
              Domain.DLS.set in_worker true;
              worker_loop ()));
       pool.idle <- pool.idle + 1;
       Atomic.incr c_workers_spawned
     done
   with _ -> Atomic.incr c_spawn_failures);
  if pool.idle < wanted then Atomic.incr c_saturated

let chunk_factor = 4
(* chunks per domain when no cost estimate is given: cheap load
   balancing for skewed seed costs *)

(* Chunk count for a job: with a cost estimate, one chunk per
   [cutoff/4] work units — fine enough that stealing can smooth skew,
   never more than 8 per domain and never fewer than one per domain. *)
let chunk_count ~cost ~slots_wanted ~n =
  match cost with
  | None -> min n (slots_wanted * chunk_factor)
  | Some c ->
    let per_chunk = max 1 (cutoff () / 4) in
    min n (max slots_wanted (min (slots_wanted * 8) (c / per_chunk)))

let map_chunks ?cost ~(domains : int) ~(n : int) (f : int -> int -> 'a) :
    'a list =
  if n <= 0 then []
  else if domains <= 1 || n < 2 then begin
    Atomic.incr c_seq_solo;
    [ f 0 n ]
  end
  else if Domain.DLS.get in_worker then begin
    Atomic.incr c_seq_nested;
    [ f 0 n ]
  end
  else
    match cost with
    | Some c when c < cutoff () ->
      Atomic.incr c_seq_below_cutoff;
      [ f 0 n ]
    | _ ->
      let seats = min (domains - 1) (n - 1) in
      let n_chunks = chunk_count ~cost ~slots_wanted:(seats + 1) ~n in
      let slots : ('a, exn) result option array = Array.make n_chunks None in
      (* chunks run under the submitter's deadline on whichever domain
         claims them, so a cancelled request stops on every domain *)
      let deadline = Deadline.current () in
      let f =
        if deadline = infinity then f
        else fun lo hi ->
          Deadline.with_deadline deadline (fun () -> Deadline.check (); f lo hi)
      in
      let job =
        {
          j_chunks = n_chunks;
          j_next = Atomic.make 0;
          j_left = Atomic.make n_chunks;
          j_run =
            (fun c ->
              let lo = c * n / n_chunks and hi = (c + 1) * n / n_chunks in
              slots.(c) <- Some (try Ok (f lo hi) with e -> Error e));
          j_seats = seats;
        }
      in
      Atomic.incr c_jobs;
      (* the submitter holds [seats] budget units for the job's duration
         — how concurrent auto-sized callers see each other *)
      for _ = 1 to seats do
        charge ()
      done;
      Mutex.lock pool.lock;
      ensure_workers seats;
      pool.jobs <- pool.jobs @ [ job ];
      Condition.broadcast pool.work;
      Mutex.unlock pool.lock;
      let was_worker = Domain.DLS.get in_worker in
      Domain.DLS.set in_worker true;
      Fun.protect
        ~finally:(fun () ->
          Domain.DLS.set in_worker was_worker;
          Mutex.lock pool.lock;
          while Atomic.get job.j_left > 0 do
            Condition.wait pool.finished pool.lock
          done;
          pool.jobs <- List.filter (fun j -> j != job) pool.jobs;
          Mutex.unlock pool.lock;
          for _ = 1 to seats do
            refund ()
          done)
        (fun () -> run_chunks ~stolen:false job);
      (* the completion counter hit zero before we read the slots, so
         every slot write happens-before these reads *)
      let out = ref [] in
      for c = n_chunks - 1 downto 0 do
        match slots.(c) with
        | Some (Ok v) -> out := v :: !out
        | Some (Error _) | None -> ()
      done;
      Array.iter
        (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
        slots;
      !out

let concat_map_chunks ?cost ~domains (f : 'a -> 'b list) (xs : 'a list) :
    'b list =
  match xs with
  | [] -> []
  | [ x ] -> f x
  | _ ->
    let arr = Array.of_list xs in
    map_chunks ?cost ~domains ~n:(Array.length arr) (fun lo hi ->
        let out = ref [] in
        for i = hi - 1 downto lo do
          out := f arr.(i) :: !out
        done;
        List.concat !out)
    |> List.concat
