(** Cooperative cancellation: a per-domain absolute deadline that the
    engines poll.

    A caller installs a wall-clock deadline ({!with_deadline}); the
    engines' loops call {!check} or, in tight loops, {!tick}, and the
    first check past the deadline raises {!Exceeded}, unwinding the
    evaluation.  Every engine keeps its shared state consistent under
    that unwinding — scratch buffers are cleaned by their [finally]s,
    and memo tables, plan and result caches are written only after a
    computation completes — so a cancelled evaluation publishes
    nothing.

    The deadline lives in {!Domain.DLS}: a query service evaluates each
    request on its own worker domain, and {!Par} re-installs the
    submitter's deadline on the domains that run its chunks.  System
    threads sharing one domain share its deadline.  With no deadline
    installed ([infinity], the default) a check or a tick is one DLS
    load and one float compare. *)

exception Exceeded

(** The deadline in force on this domain, [infinity] if none. *)
val current : unit -> float

(** [with_deadline t f] runs [f] with the absolute deadline [t] in
    force — or the enclosing one, if that is earlier — and restores the
    previous deadline however [f] returns. *)
val with_deadline : float -> (unit -> 'a) -> 'a

(** Raise {!Exceeded} if the deadline in force has passed. *)
val check : unit -> unit

(** Count one unit of work; every 1024th unit on a domain reads the
    clock as {!check} does.  For loops too tight to read it per step. *)
val tick : unit -> unit
