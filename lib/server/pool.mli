(** A fixed pool of OCaml 5 worker domains.

    Jobs are thunks pulled from one mutex/condvar queue; each accepted
    connection becomes a job, so up to [size] connections evaluate
    queries truly in parallel (snapshots are immutable — workers share
    them without synchronisation) while further connections queue.

    A worker holds one unit of the process-wide {!Gql_graph.Par} domain
    budget while it runs a job: per-request parallelism sized by
    [Par.auto_domains] then only spends the capacity that idle workers
    leave over, so a burst of clients cannot oversubscribe the machine
    while a lone request may still fan out across the whole budget.
    This composes with Par's own persistent worker pool: a request that
    does fan out submits a job to Par's parked domains rather than
    spawning fresh ones, and its submitting connection worker holds the
    extra budget units only while that job runs.  (The two pools stay
    separate on purpose — these workers block on sockets, Par's never
    do, so a slow client can't starve query parallelism.)

    [shutdown] drains nothing: it wakes every worker, lets in-flight
    jobs finish, and joins the domains — callers close listeners first
    so no new jobs arrive. *)

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  size : int;
}

val create : ?size:int -> unit -> t

val size : t -> int

val submit : t -> (unit -> unit) -> unit

val shutdown : t -> unit
