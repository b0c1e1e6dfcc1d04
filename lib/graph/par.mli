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

(** Run [f] with one budget unit held — how a server pool worker marks
    itself busy for the duration of a job. *)
val charged : (unit -> 'a) -> 'a

(** Domain count an auto-sized caller should use right now: itself plus
    whatever spare capacity is left.  Never below 1. *)
val auto_domains : unit -> int

val set_default : int -> unit

val default_domains : unit -> int

val set_cutoff : int -> unit

(** The work-size cutoff now in force: {!set_cutoff} (the CLI's
    [--par-cutoff]) wins, then [GQL_PAR_CUTOFF], then
    {!default_cutoff}.  [0] disables gating entirely. *)
val cutoff : unit -> int

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

val stats : unit -> stats

(** Counter deltas between two snapshots — what a bench wraps around a
    measured run. *)
val stats_diff : before:stats -> stats -> stats

(** The scheduler's slice of a METRICS body: one [par_key=value] per
    line, stable keys. *)
val stats_lines : unit -> string

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
val map_chunks :
  ?cost:int -> domains:int -> n:int -> (int -> int -> 'a) -> 'a list

(** Deterministic parallel concat-map: [concat_map_chunks ~domains f xs]
    equals [List.concat_map f xs], computed chunk-wise.  [?cost] gates
    and granulates exactly as in {!map_chunks}. *)
val concat_map_chunks :
  ?cost:int -> domains:int -> ('a -> 'b list) -> 'a list -> 'b list
