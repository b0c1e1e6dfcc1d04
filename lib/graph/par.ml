(** Deterministic chunked fan-out over a persistent pool of OCaml 5
    worker domains.

    The embedding searches in this repo are pure reads over a frozen or
    quiescent graph, so they parallelise by *seed partitioning*: split
    the first choice point's candidate list into contiguous chunks, run
    an independent search instance per chunk, and concatenate the
    per-chunk buffers in chunk order.  Because every instance is
    deterministic and the chunks tile the sequential candidate order,
    the merged enumeration is byte-identical to the sequential one —
    parallelism changes wall-clock time, never answers.

    {!map_chunks} is the only scheduling primitive, and it is now *job
    submission*, not domain creation: worker domains are spawned lazily,
    at most once each, and park on a condition variable between jobs.  A
    job is an atomic chunk counter plus a slot array; the submitting
    domain claims chunks alongside however many pool workers took a seat
    on the job, so an idle pool costs nothing and a busy one never pays
    [Domain.spawn] (~50-200 us plus a GC ramp-up) on the hot path.
    Results land in the slot array and are read back in chunk order
    after the last chunk completes (the atomic completion counter gives
    the happens-before edge for the reads).  Worker domains are flagged
    via {!Domain.DLS} so nested calls degrade to sequential execution
    instead of re-entering the pool.

    On top of the pool sits *work-size gating*: callers pass [?cost], a
    cheap estimate of the job's total work (candidate count x pattern
    size, in predicate-test units), and jobs below {!cutoff} run
    sequentially on the caller — a 6 ms query never pays fan-out tax,
    however many domains were requested.  The chunk count also adapts to
    the estimate: big jobs get fine chunks (work stealing smooths skewed
    seed costs), marginal jobs get few.

    A process-wide {!budget} (seeded from
    [Domain.recommended_domain_count () - 1]) accounts for concurrently
    busy domains.  Explicit requests ([~domains:4] from the CLI, bench
    or tests) may grow the pool past the hardware budget — the user
    asked — but they charge the budget while running, and *auto* sizing
    ({!auto_domains}, used by the server) only spends what is currently
    left, so an 8-client burst cannot oversubscribe the machine: busy
    pool workers each hold one unit, and per-request fan-out sees the
    remainder.

    Everything observable about the scheduler — jobs, chunks, steals,
    sequential-fallback reasons, spawn failures, saturation — is
    counted in {!stats}. *)

let total_capacity = Domain.recommended_domain_count ()

(* Spare-domain budget: how many domains beyond the already-running
   ones the machine can absorb.  May go negative under explicit
   oversubscription; auto sizing clamps at zero. *)
let budget = Atomic.make (max 0 (total_capacity - 1))

let charge () = ignore (Atomic.fetch_and_add budget (-1))
let refund () = ignore (Atomic.fetch_and_add budget 1)

(** Run [f] with one budget unit held — how a server pool worker marks
    itself busy for the duration of a job. *)
let charged f =
  charge ();
  Fun.protect ~finally:refund f

(** Domain count an auto-sized caller should use right now: itself plus
    whatever spare capacity is left.  Never below 1. *)
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

(** The work-size cutoff now in force: {!set_cutoff} (the CLI's
    [--par-cutoff]) wins, then [GQL_PAR_CUTOFF], then
    {!default_cutoff}.  [0] disables gating entirely. *)
let cutoff () =
  match Atomic.get cutoff_override with
  | -1 -> ( match env_cutoff with Some n -> n | None -> default_cutoff)
  | n -> n

(* ------------------------------------------------------------------ *)
(* Scheduler observability                                             *)
(* ------------------------------------------------------------------ *)

type stats = {
  jobs : int;  (** parallel jobs submitted to the worker pool *)
  chunks : int;  (** chunks executed by pooled jobs (all domains) *)
  stolen : int;  (** chunks executed by pool workers, not the submitter *)
  seq_below_cutoff : int;
      (** calls gated sequential: cost estimate under {!cutoff} *)
  seq_nested : int;  (** calls gated sequential: issued from a worker *)
  seq_solo : int;  (** calls gated sequential: [domains <= 1] or [n < 2] *)
  workers_spawned : int;  (** pool domains ever spawned (never joined) *)
  spawn_failures : int;
      (** [Domain.spawn] refusals — the pool runs with fewer workers,
          visibly instead of silently *)
  saturated : int;
      (** jobs submitted with fewer idle workers than requested seats *)
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

(** Counter deltas between two snapshots — what a bench wraps around a
    measured run. *)
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

(** The scheduler's slice of a METRICS body: one [par_key=value] per
    line, stable keys. *)
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

(** [map_chunks ?cost ~domains ~n f] tiles the index range [\[0, n)]
    with contiguous chunks, evaluates [f lo hi] once per chunk ([lo]
    inclusive, [hi] exclusive) on up to [domains] domains (the caller
    included), and returns the chunk results in ascending chunk order —
    so [List.concat (map_chunks ~domains ~n f)] equals the sequential
    [f 0 n] whenever [f] concatenates over its range.  If any [f]
    raises, the exception of the lowest-numbered failing chunk is
    re-raised after the whole job has completed.  Chunks run under the
    caller's {!Deadline}, whichever domain claims them.

    Runs sequentially (one [f 0 n] call, no pool traffic) when
    [domains <= 1], [n < 2], when called from inside a pool worker, or
    when [cost] — the caller's work estimate — is below {!cutoff}.
    Otherwise the call becomes a pool job: up to [domains - 1] idle
    workers (spawned on first need, reused forever) claim chunks from
    the job's atomic counter alongside the caller. *)
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

(** Deterministic parallel concat-map: [concat_map_chunks ~domains f xs]
    equals [List.concat_map f xs], computed chunk-wise.  [?cost] gates
    and granulates exactly as in {!map_chunks}. *)
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
