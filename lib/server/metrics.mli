(** Service observability: lock-free counters and latency histograms.

    Every counter is an [Atomic.t] and the histogram buckets are atomics
    too, so workers on different domains record without contending on a
    lock; readers ([METRICS]) see a near-consistent snapshot, which is
    all a monitoring endpoint needs.

    The histogram is log-linear over microseconds: each power of two is
    split into {!sub} linear sub-buckets, giving <= 25% relative error
    on reported quantiles across nine decades — the classic HDR shape in
    ~500 words of memory. *)

type histogram = {
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum_us : int Atomic.t;
  max_us : int Atomic.t;
}

val histogram : unit -> histogram

val observe : histogram -> us:int -> unit

(** The [q]-quantile (0..1) in microseconds, or 0 with no observations. *)
val quantile : histogram -> float -> int

type t = {
  started_at : float;
  requests : int Atomic.t;
  errors : int Atomic.t;
  timeouts : int Atomic.t;  (** every [TIMEOUT] answer *)
  cancelled : int Atomic.t;
      (** the [TIMEOUT]s whose evaluation was stopped inside an engine *)
  loads : int Atomic.t;
  runs : int Atomic.t;
  prepared_hits : int Atomic.t;  (** query cache: parse+plan reused *)
  prepared_misses : int Atomic.t;
  result_hits : int Atomic.t;  (** result cache: evaluation skipped *)
  result_misses : int Atomic.t;
  plan_hits : int Atomic.t;  (** plan cache: planning skipped *)
  plan_misses : int Atomic.t;
  latency : histogram;  (** per-request service time *)
}

val create : unit -> t

val incr : int Atomic.t -> unit

(** The [METRICS] body: one [key=value] per line, stable keys. *)
val render : t -> string

(** Parse a [render]ed body back into an association list (client side). *)
val parse_body : string -> (string * string) list
