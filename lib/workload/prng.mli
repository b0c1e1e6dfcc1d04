(** Deterministic PRNG (splitmix64).

    Benchmarks and property corpora must be reproducible across runs and
    machines, so nothing in the workload generators touches [Random];
    every generator takes a seed and derives its stream from it. *)

type t = { mutable state : int64 }

val create : int -> t

(** Uniform int in [0, bound).

    Rejection sampling over 62-bit draws: a plain [Int64.rem] of the
    raw state is biased towards small residues whenever [bound] does
    not divide the draw range (up to ~2^-62 per value, but measurable
    for large bounds).  Draws in the tail [lim, 2^62) are redrawn so
    every residue class is equally likely.  Note this consumes a
    variable number of raw draws, so streams differ from the pre-fix
    generator even when no rejection occurs (62- vs 63-bit window). *)
val int : t -> int -> int

val float : t -> float

val bool : t -> bool

val pick : t -> 'a array -> 'a

(** Shuffle a copy of the array. *)
val shuffle : t -> 'a array -> 'a array
