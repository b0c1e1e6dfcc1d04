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

type state = {
  mutable at : float;  (** absolute [Unix.gettimeofday] seconds *)
  mutable ticks : int;  (** work units since the domain started *)
}

let key = Domain.DLS.new_key (fun () -> { at = infinity; ticks = 0 })

(** The deadline in force on this domain, [infinity] if none. *)
let current () = (Domain.DLS.get key).at

(** [with_deadline t f] runs [f] with the absolute deadline [t] in
    force — or the enclosing one, if that is earlier — and restores the
    previous deadline however [f] returns. *)
let with_deadline (t : float) (f : unit -> 'a) : 'a =
  let s = Domain.DLS.get key in
  let prev = s.at in
  s.at <- Float.min t prev;
  Fun.protect ~finally:(fun () -> s.at <- prev) f

(** Raise {!Exceeded} if the deadline in force has passed. *)
let check () =
  let s = Domain.DLS.get key in
  if s.at < infinity && Unix.gettimeofday () > s.at then raise Exceeded

(** Count one unit of work; every 1024th unit on a domain reads the
    clock as {!check} does.  For loops too tight to read it per step. *)
let tick () =
  let s = Domain.DLS.get key in
  if s.at < infinity then begin
    s.ticks <- s.ticks + 1;
    if s.ticks land 1023 = 0 && Unix.gettimeofday () > s.at then raise Exceeded
  end
