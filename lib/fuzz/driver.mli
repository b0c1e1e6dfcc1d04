(** The fuzz loop: generate, check, shrink, report.

    Case [i] of a run uses seed [base_seed + i], so any failure is
    addressable as a single integer regardless of how many cases ran
    before it — [gql fuzz --seed N --cases 1] replays exactly one.
    Each case fans out into one subcheck per (oracle, artifact) pair;
    a subcheck that fails is minimized with {!Shrink.minimize} against
    its own re-run closure and reported (and written to [out_dir] as a
    {!Corpus.repro} when one is given). *)

type config = {
  base_seed : int;
  cases : int;
  oracles : Oracle.name list;
  out_dir : string option;  (** where minimized repros are written *)
  log : string -> unit;
}

type failure = {
  seed : int;
  oracle : Oracle.name;
  detail : string;
  minimized_source : string;
  minimized_xml : string;
  repro_path : string option;
}

type outcome = { cases_run : int; checks_run : int; failures : failure list }

val run : config -> outcome

