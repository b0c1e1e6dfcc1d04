type histogram = {
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum_us : int Atomic.t;
  max_us : int Atomic.t;
}

let sub = 8 (* linear sub-buckets per power of two *)
let n_pows = 30 (* up to ~2^30 us ~ 18 minutes *)

let histogram () =
  {
    buckets = Array.init (sub * n_pows) (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    sum_us = Atomic.make 0;
    max_us = Atomic.make 0;
  }

let bucket_of_us us =
  let us = max us 1 in
  let pow = (* floor log2 *)
    let rec go p v = if v <= 1 then p else go (p + 1) (v lsr 1) in
    go 0 us
  in
  let base = 1 lsl pow in
  let frac = if base >= sub then (us - base) / (base / sub) else 0 in
  min ((pow * sub) + min frac (sub - 1)) ((sub * n_pows) - 1)

(** Upper bound (us) of bucket [i] — what quantile lookups report. *)
let bucket_upper i =
  let pow = i / sub and frac = i mod sub in
  let base = 1 lsl pow in
  if base >= sub then base + ((frac + 1) * (base / sub)) else base * 2

let observe (h : histogram) ~us =
  let us = max us 0 in
  Atomic.incr h.count;
  ignore (Atomic.fetch_and_add h.sum_us us);
  Atomic.incr h.buckets.(bucket_of_us us);
  let rec raise_max () =
    let m = Atomic.get h.max_us in
    if us > m && not (Atomic.compare_and_set h.max_us m us) then raise_max ()
  in
  raise_max ()

let quantile (h : histogram) q =
  let total = Atomic.get h.count in
  if total = 0 then 0
  else begin
    let target =
      max 1 (int_of_float (ceil (q *. float_of_int total)))
    in
    let acc = ref 0 and result = ref (Atomic.get h.max_us) in
    (try
       Array.iteri
         (fun i b ->
           acc := !acc + Atomic.get b;
           if !acc >= target then begin
             result := bucket_upper i;
             raise Exit
           end)
         h.buckets
     with Exit -> ());
    min !result (max (Atomic.get h.max_us) 1)
  end

let mean_us (h : histogram) =
  let n = Atomic.get h.count in
  if n = 0 then 0.0 else float_of_int (Atomic.get h.sum_us) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* The service's counter set                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  started_at : float;
  requests : int Atomic.t;
  errors : int Atomic.t;
  timeouts : int Atomic.t;
  cancelled : int Atomic.t;
  loads : int Atomic.t;
  runs : int Atomic.t;
  prepared_hits : int Atomic.t;
  prepared_misses : int Atomic.t;
  result_hits : int Atomic.t;
  result_misses : int Atomic.t;
  plan_hits : int Atomic.t;
  plan_misses : int Atomic.t;
  latency : histogram;
}

let create () =
  {
    started_at = Unix.gettimeofday ();
    requests = Atomic.make 0;
    errors = Atomic.make 0;
    timeouts = Atomic.make 0;
    cancelled = Atomic.make 0;
    loads = Atomic.make 0;
    runs = Atomic.make 0;
    prepared_hits = Atomic.make 0;
    prepared_misses = Atomic.make 0;
    result_hits = Atomic.make 0;
    result_misses = Atomic.make 0;
    plan_hits = Atomic.make 0;
    plan_misses = Atomic.make 0;
    latency = histogram ();
  }

let incr = Atomic.incr

let render (t : t) : string =
  let b = Buffer.create 256 in
  let kv k v = Buffer.add_string b (Printf.sprintf "%s=%s\n" k v) in
  let ki k v = kv k (string_of_int v) in
  kv "uptime_s" (Printf.sprintf "%.1f" (Unix.gettimeofday () -. t.started_at));
  ki "requests" (Atomic.get t.requests);
  ki "errors" (Atomic.get t.errors);
  ki "timeouts" (Atomic.get t.timeouts);
  ki "cancelled" (Atomic.get t.cancelled);
  ki "loads" (Atomic.get t.loads);
  ki "runs" (Atomic.get t.runs);
  ki "prepared_cache_hits" (Atomic.get t.prepared_hits);
  ki "prepared_cache_misses" (Atomic.get t.prepared_misses);
  ki "result_cache_hits" (Atomic.get t.result_hits);
  ki "result_cache_misses" (Atomic.get t.result_misses);
  ki "plan_cache_hits" (Atomic.get t.plan_hits);
  ki "plan_cache_misses" (Atomic.get t.plan_misses);
  ki "latency_count" (Atomic.get t.latency.count);
  kv "latency_mean_us" (Printf.sprintf "%.1f" (mean_us t.latency));
  ki "latency_p50_us" (quantile t.latency 0.50);
  ki "latency_p95_us" (quantile t.latency 0.95);
  ki "latency_p99_us" (quantile t.latency 0.99);
  ki "latency_max_us" (Atomic.get t.latency.max_us);
  Buffer.contents b

let parse_body (body : string) : (string * string) list =
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         match String.index_opt line '=' with
         | Some i ->
           Some
             ( String.sub line 0 i,
               String.sub line (i + 1) (String.length line - i - 1) )
         | None -> None)
