(* gqlbench: the served-traffic benchmark of `gql serve`.

     dune exec benchmark/gqlbench.exe -- --seed N [--workload W]... [--seconds S]
       [--trace 0|1] [--runs K] [--out PATH] [--dir DIR] [--inject-mismatch]

   Each workload generates its documents from the seed, computes every
   expected answer in a child process, starts a fresh server (several
   times, to time set-up), runs one untimed warm-up pass over its
   distinct requests, then drives the server for the timed window and
   judges every answer.  With --trace 1 it then replays the same request
   streams in a child process with a span around each layer call.  One
   line per metric, `<workload> <metric> <value> <unit>`; the last line
   is one JSON object with the metrics named in BENCHMARK.json
   (end-to-end ones, or per-layer ones with --trace 1).  See README.md. *)

open Fixtures
module Prng = Gql_workload.Prng
module Queries = Gql_workload.Queries

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type traffic =
  | Open_loop of (float * req) array  (** due offset in seconds, request *)
  | Closed_loop of { clients : int; round : int; next : int -> unit -> req }
      (** [next k] is client [k]'s request stream *)

type plan = {
  rcache : int;  (** the server's result-cache capacity *)
  warmup : req list;  (** one untimed pass over every distinct request *)
  traffic : traffic;
  pool : req list;  (** every request [traffic] can send *)
  replay : req array;  (** the first requests of the same streams *)
  primary : req -> bool;  (** the requests the latency metrics cover *)
  tail : float;  (** the percentile [latency_tail_ms] reports *)
}

type workload = {
  name : string;
  variants : int;  (** document variants: two where documents are reloaded *)
  large : string list;  (** large graphs the workload serves *)
  plan : seed:int -> seconds:float -> docs -> plan;
}

let suite () = List.map of_suite Queries.server_suite

(** [n] draws from [pool] in seeded shuffled blocks: every block of
    [Array.length pool] draws holds each element once, so a request
    mix's proportions are exact and its latency percentiles do not move
    with sampling luck. *)
let blocks rng pool n =
  let k = Array.length pool in
  let block = Array.copy pool in
  Array.init n (fun i ->
      if i mod k = 0 then
        for j = k - 1 downto 1 do
          let r = Prng.int rng (j + 1) in
          let t = block.(j) in
          block.(j) <- block.(r);
          block.(r) <- t
        done;
      block.(i mod k))

(* mix-cold: every request evaluates, in all three languages; Q2 and M5
   carry a fresh literal, so about 13% of requests miss the prepared-
   query and plan caches.  At 40 req/s each thread has 50 ms per
   request, more than the slowest query takes, so the tail measures
   service time rather than requests queued behind Q4 and Q5. *)
let mix_cold ~seed ~seconds _docs =
  let rate = 40.0 in
  let base = Array.of_list (suite ()) in
  let schedule n =
    let rng = Prng.create ((seed * 8) + 1) in
    Array.mapi
      (fun i (r : req) ->
        let r =
          match r.label with
          | "Q2" | "M5" -> with_literal (suite_entry r.label) (Prng.int rng 1000)
          | _ -> r
        in
        (float_of_int i /. rate, r))
      (blocks rng base n)
  in
  let served = schedule (int_of_float (rate *. seconds)) in
  {
    rcache = 0;
    warmup = Array.to_list base;
    traffic = Open_loop served;
    pool = Array.to_list (Array.map snd served);
    replay = Array.map snd (schedule 600);
    primary = (fun _ -> true);
    tail = 0.9;
  }

(* hot-reload: Zipf reads that fit the result cache, and client 0
   re-LOADs one document every [reload_every] reads (about once a
   second on a 2-core x86 box), flipping it to its other variant and
   rotating through the three XML documents. *)
let reload_every = 7500

let hot_reload ~seed ~seconds:_ docs =
  let base = Array.of_list (suite ()) in
  let cdf =
    let w = Array.init (Array.length base) (fun i -> 1.0 /. float_of_int (i + 1)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.map (fun x -> acc := !acc +. (x /. total); !acc) w
  in
  let zipf rng =
    let u = Prng.float rng in
    let rec go i = if i = Array.length cdf - 1 || u < cdf.(i) then i else go (i + 1) in
    base.(go 0)
  in
  let loads = Array.of_list (List.map (fun (doc, texts) -> Array.map (load ~doc) texts) docs.texts) in
  let next k =
    let rng = Prng.create ((seed * 8) + 2 + (k lsl 20)) in
    let since = ref 0 and turn = ref 0 in
    let flips = Array.make (Array.length loads) 0 in
    fun () ->
      if k = 0 && !since >= reload_every then begin
        since := 0;
        let d = !turn mod Array.length loads in
        incr turn;
        flips.(d) <- flips.(d) + 1;
        loads.(d).(flips.(d) mod 2)
      end
      else begin
        incr since;
        zipf rng
      end
  in
  let replay =
    let c0 = next 0 and c1 = next 1 in
    Array.init 20_000 (fun i -> if i mod 2 = 0 then c0 () else c1 ())
  in
  {
    rcache = 256;
    warmup = Array.to_list base;
    traffic = Closed_loop { clients = 2; round = 1; next };
    pool = Array.to_list base;
    replay;
    primary = (fun r -> r.lang <> Load);
    tail = 0.9;
  }

(* large-scan: one client, round-robin over three large requests; a
   window ends on a whole round, so each request weighs the same.  A
   20 s window holds about 45 requests, so the tail is p75, the highest
   percentile with ten samples beyond it. *)
let large_scan ~seed ~seconds:_ _docs =
  let reqs = [| wide_scan (); deep_path (); wide_fixpoint () |] in
  let next k =
    let i = ref (abs seed + k) in
    fun () ->
      incr i;
      reqs.(!i mod 3)
  in
  {
    rcache = 0;
    warmup = Array.to_list reqs;
    traffic = Closed_loop { clients = 1; round = 3; next };
    pool = Array.to_list reqs;
    replay = Array.init 6 (fun i -> reqs.((abs seed + 1 + i) mod 3));
    primary = (fun _ -> true);
    tail = 0.75;
  }

(* deadline-mix: a short class at 100 req/s and a heavy class at 1 req/s
   (the deep regular-path closure, ~0.2 s of work), all with
   deadline=50.  The heavy class answers TIMEOUT by design; while it
   evaluates it holds its worker and its connection, so about a tenth
   of the short class waits behind it.  The tail is the short class's
   p99, which lies inside that tenth; its p50 lies outside it. *)
let deadline_mix ~seed ~seconds _docs =
  let short_names = [ "Q2"; "Q6"; "Q7"; "Q8"; "Q9"; "M1"; "M2"; "M3"; "M4"; "M5" ] in
  let short =
    Array.of_list (List.map (fun n -> of_suite ~deadline_ms:50.0 (suite_entry n)) short_names)
  in
  let heavy = deep_path ~deadline_ms:50.0 ~heavy:true () in
  let schedule dur =
    let rng = Prng.create ((seed * 8) + 4) in
    let shorts =
      Array.to_list
        (Array.mapi
           (fun i r -> (float_of_int i /. 100.0, r))
           (blocks rng short (int_of_float (100.0 *. dur))))
    in
    let heavies =
      List.init (int_of_float dur) (fun j -> (float_of_int j +. 0.5, heavy))
    in
    Array.of_list (List.stable_sort (fun (a, _) (b, _) -> compare a b) (shorts @ heavies))
  in
  let served = schedule seconds in
  {
    rcache = 0;
    warmup = List.map (fun n -> of_suite (suite_entry n)) short_names @ [ deep_path () ];
    traffic = Open_loop served;
    pool = Array.to_list (Array.map snd served);
    replay = Array.map snd (Array.sub (schedule 5.0) 0 505);
    primary = (fun r -> not r.heavy);
    tail = 0.99;
  }

let workloads =
  [
    { name = "mix-cold"; variants = 1; large = []; plan = mix_cold };
    { name = "hot-reload"; variants = 2; large = []; plan = hot_reload };
    { name = "large-scan"; variants = 1; large = [ "wide"; "deep" ]; plan = large_scan };
    { name = "deadline-mix"; variants = 1; large = [ "deep" ]; plan = deadline_mix };
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(** The end-to-end metrics, as in BENCHMARK.json. *)
let end_to_end =
  [ ("setup_s", "s"); ("throughput_rps", "req/s"); ("query_p50_ms", "ms");
    ("latency_tail_ms", "ms"); ("server_cpu_ms", "ms"); ("server_rss_mb", "MB") ]

(* The spans whose aggregates are per-layer metrics; the trace file and
   the printed lines also carry [setup] and [qcache.find]. *)
let layer_spans =
  List.filter (fun s -> s <> "setup" && s <> "qcache.find") (Array.to_list Trace.names)

let span_fields =
  [ ("calls", "count"); ("self_ms", "ms"); ("p50_us", "us"); ("minor_words", "words");
    ("major_words", "words") ]

let span_counts =
  [ ("xmlgl.match", "rows"); ("algebra.exec", "rows"); ("xml.print", "bytes");
    ("match.render", "bytes"); ("protocol.render_response", "bytes") ]

(** The per-layer metrics, as in BENCHMARK.json. *)
let per_layer =
  [ ("wire.wait_us_p50", "us"); ("wire.wait_us_p99", "us");
    ("server.prepared_hit_ratio", "ratio"); ("server.plan_hit_ratio", "ratio");
    ("server.result_hit_ratio", "ratio"); ("server.timeouts", "count");
    ("server.errors", "count"); ("par.jobs", "count"); ("par.chunks", "count");
    ("par.chunks_stolen", "count"); ("par.seq_below_cutoff", "count");
    ("par.seq_nested", "count"); ("par.seq_solo", "count"); ("path.searches", "count");
    ("path.memo_hit_ratio", "ratio"); ("path.frontier_peak", "count");
    ("snapshot.load_ms", "ms"); ("loadgen.lag_p99_ms", "ms"); ("loadgen.cpu_s", "s");
    ("loadgen.rss_mb", "MB"); ("loadgen.warmup_s", "s") ]
  @ List.concat_map
      (fun s -> List.map (fun (f, u) -> (s ^ "." ^ f, u)) span_fields)
      layer_spans
  @ List.map (fun (s, f) -> (s ^ "." ^ f, "count")) span_counts
  @ [ ("trace.overhead_frac", "fraction"); ("trace.coverage", "fraction") ]

(** Nearest-rank percentile, [q] in 0..1. *)
let pct q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = pct 0.5 xs
let ms s = s *. 1000.0

(** The mean over groups of [f] of each group.  As a median per query,
    every query weighs the same however often it is sent, and the figure
    does not jump the way a pooled median does when it falls between two
    queries' latencies. *)
let mean_by key f xs =
  let groups = List.sort_uniq compare (List.map key xs) in
  List.fold_left (fun a g -> a +. f (List.filter (fun x -> key x = g) xs)) 0.0 groups
  /. float_of_int (List.length groups)

type result = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  wrong : int;  (** wrong bodies and errors: the run is incorrect *)
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let served_metrics (w : workload) (p : plan) ~setups ~warmup_s ~samples ~t0
    ~(m0 : (string * float) list) ~m1 ~cpu ~loadgen_cpu ~rss ~server_hwm =
  let open Served in
  let d k =
    Option.value ~default:0.0 (List.assoc_opt k m1)
    -. Option.value ~default:0.0 (List.assoc_opt k m0)
  in
  let ratio hits misses = if d hits +. d misses = 0.0 then 0.0 else d hits /. (d hits +. d misses) in
  let answered = List.filter (fun s -> s.outcome = Answered) samples in
  let elapsed = List.fold_left (fun m s -> max m s.recv) t0 samples -. t0 in
  let primary = List.filter (fun s -> p.primary s.req) samples in
  let latency s = ms (s.recv -. s.due) and label s = s.req.label in
  let lat = List.map latency primary in
  let of_lang l = List.filter_map (fun s -> if s.req.lang = l then Some (ms (s.recv -. s.due)) else None) primary in
  let waits =
    List.filter_map
      (fun s ->
        if Float.is_nan s.server_ms then None
        else Some ((ms (s.recv -. s.sent) -. s.server_ms) *. 1000.0))
      samples
  in
  let e2e =
    [ ("setup_s", median setups, "s");
      ("throughput_rps", float_of_int (List.length answered) /. elapsed, "req/s");
      ("query_p50_ms", mean_by label (fun l -> median (List.map latency l)) primary, "ms");
      ("latency_tail_ms", pct p.tail lat, "ms");
      ("server_cpu_ms", ms cpu /. float_of_int (List.length samples), "ms");
      ("server_rss_mb", median rss, "MB") ]
  in
  (* workload-specific figures: printed and written, not in BENCHMARK.json *)
  let extra =
    [ ("requests", float_of_int (List.length samples), "count");
      ("server_hwm_mb", server_hwm, "MB");
      ("latency_samples", float_of_int (List.length lat), "count");
      ("failed_frac",
       float_of_int (List.length samples - List.length answered) /. float_of_int (List.length samples),
       "fraction") ]
    @ [ ("latency_p50_ms", median lat, "ms"); ("latency_p90_ms", pct 0.9 lat, "ms") ]
    @ (if List.length lat >= 1000 then [ ("latency_p99_ms", pct 0.99 lat, "ms") ] else [])
    @ (match p.traffic with
      | Open_loop _ ->
        [ ("slo_frac",
           float_of_int
             (List.length (List.filter (fun s -> s.outcome = Answered && s.recv -. s.due <= 0.05) primary))
           /. float_of_int (List.length primary),
           "fraction") ]
      | Closed_loop _ -> [])
    @ List.filter_map
        (fun l ->
          match of_lang l with
          | [] -> None
          | xs -> Some (lang_name l ^ "_p50_ms", median xs, "ms"))
        [ Xmlgl; Wglog; Match ]
    @ (match List.filter (fun s -> s.req.lang = Load) samples with
      | [] -> []
      | loads -> [ ("write_p50_ms", median (List.map (fun s -> ms (s.recv -. s.sent)) loads), "ms") ])
    @ (match List.filter (fun s -> s.req.heavy) samples with
      | [] -> []
      | hs -> [ ("timeout_answer_ms", median (List.map (fun s -> ms (s.recv -. s.due)) hs), "ms") ])
    @
    if w.large = [] then []
    else
      [ ("rows_per_s", List.fold_left (fun a s -> a +. s.rows) 0.0 answered /. elapsed, "rows/s") ]
  in
  let layer =
    [ ("wire.wait_us_p50", pct 0.5 waits, "us"); ("wire.wait_us_p99", pct 0.99 waits, "us");
      ("server.prepared_hit_ratio", ratio "prepared_cache_hits" "prepared_cache_misses", "ratio");
      ("server.plan_hit_ratio", ratio "plan_cache_hits" "plan_cache_misses", "ratio");
      ("server.result_hit_ratio", ratio "result_cache_hits" "result_cache_misses", "ratio");
      ("server.timeouts", d "timeouts", "count"); ("server.errors", d "errors", "count");
      ("par.jobs", d "par_jobs", "count"); ("par.chunks", d "par_chunks", "count");
      ("par.chunks_stolen", d "par_chunks_stolen", "count");
      ("par.seq_below_cutoff", d "par_seq_below_cutoff", "count");
      ("par.seq_nested", d "par_seq_nested", "count"); ("par.seq_solo", d "par_seq_solo", "count");
      ("path.searches", d "path_searches", "count");
      ("path.memo_hit_ratio", ratio "path_memo_hits" "path_memo_misses", "ratio");
      ("path.frontier_peak", Option.value ~default:0.0 (List.assoc_opt "path_frontier_peak" m1), "count");
      ("snapshot.load_ms", Option.value ~default:0.0 (List.assoc_opt "snapshot_load_ms" m1), "ms");
      ("loadgen.lag_p99_ms", pct 0.99 (List.map (fun s -> ms (s.sent -. s.due)) samples), "ms");
      ("loadgen.cpu_s", loadgen_cpu, "s");
      ("loadgen.rss_mb", Proc.status_mb (Unix.getpid ()) "VmRSS", "MB");
      ("loadgen.warmup_s", warmup_s, "s") ]
  in
  (e2e, extra, layer)

let replay_metrics (r : Replay.result) =
  let spans =
    List.concat
      (List.mapi
         (fun i name ->
           let a = r.Replay.spans.(i) in
           [ (name ^ ".calls", float_of_int a.Trace.calls, "count");
             (name ^ ".self_ms", a.Trace.self_ms, "ms"); (name ^ ".p50_us", a.Trace.p50_us, "us");
             (name ^ ".minor_words", a.Trace.minor_words, "words");
             (name ^ ".major_words", a.Trace.major_words, "words") ])
         (Array.to_list Trace.names))
  in
  let counts =
    List.map
      (fun (s, f) ->
        let a = r.Replay.spans.(Trace.id s) in
        (s ^ "." ^ f, float_of_int (if f = "rows" then a.Trace.rows else a.Trace.bytes), "count"))
      span_counts
  in
  spans @ counts
  @ [ ("trace.overhead_frac", r.Replay.overhead_frac, "fraction");
      ("trace.coverage", r.Replay.coverage, "fraction") ]

(* ------------------------------------------------------------------ *)
(* One run of one workload                                             *)
(* ------------------------------------------------------------------ *)

let setups = 9

let run_workload ~exe ~seed ~seconds ~trace ~inject (w : workload) : result =
  let docs = docs ~seed ~variants:w.variants ~large:w.large in
  let p = w.plan ~seed ~seconds docs in
  prepare docs (p.warmup @ p.pool @ if trace then Array.to_list p.replay else []);
  if inject then begin
    let r = List.hd p.warmup in
    r.expect <- Array.map (fun e -> e ^ "#") r.expect
  end;
  let args =
    [ "--workers"; "2"; "--rcache"; string_of_int p.rcache ] @ List.concat_map (fun f -> [ "-d"; f ]) docs.files
  in
  let rec spawn k acc =
    let server, s = Served.spawn ~exe ~args in
    if k = 1 then (server, s :: acc)
    else begin
      Proc.stop server;
      spawn (k - 1) (s :: acc)
    end
  in
  let server, setup_times = spawn setups [] in
  let threads =
    min (Domain.recommended_domain_count ())
      (match p.traffic with Open_loop _ -> 2 | Closed_loop c -> c.clients)
  in
  let conns = Array.init (max 1 threads) (fun _ -> Gql_server.Client.connect_unix Served.socket) in
  let epochs = Served.Epochs.create () in
  let tw = Unix.gettimeofday () in
  let warm = List.map (Served.exchange epochs conns.(0) ~due:nan) p.warmup in
  let warmup_s = Unix.gettimeofday () -. tw in
  let m0 = Served.metrics conns.(0) in
  let cpu0 = Proc.cpu_s server.Proc.pid and l0 = Unix.times () in
  let rss = Proc.sample 0.1 (fun () -> Proc.status_mb server.Proc.pid "VmRSS") in
  let samples, t0 =
    match p.traffic with
    | Open_loop schedule -> Served.open_loop epochs conns schedule
    | Closed_loop c -> Served.closed_loop epochs conns ~seconds ~round:c.round c.next
  in
  let l1 = Unix.times () and cpu1 = Proc.cpu_s server.Proc.pid in
  let rss = rss () in
  let m1 = Served.metrics conns.(0) in
  let server_hwm = Proc.status_mb server.Proc.pid "VmHWM" in
  Array.iter (fun c -> ignore (Gql_server.Client.quit c)) conns;
  Proc.stop server;
  let e2e, extra, layer =
    served_metrics w p ~setups:setup_times ~warmup_s ~samples ~t0 ~m0 ~m1 ~cpu:(cpu1 -. cpu0)
      ~loadgen_cpu:(l1.Unix.tms_utime +. l1.Unix.tms_stime -. l0.Unix.tms_utime -. l0.Unix.tms_stime)
      ~rss ~server_hwm
  in
  let bad outcome = match outcome with Served.Wrong | Served.Failed _ -> true | _ -> false in
  let count f l = List.length (List.filter f l) in
  let wrong =
    count (fun s -> bad s.Served.outcome) warm + count (fun s -> bad s.Served.outcome) samples
  in
  let failed = count (fun s -> s.Served.outcome <> Served.Answered) samples in
  let attempted = List.length samples in
  if trace then begin
    (* in a child: the replay's engines may start domains *)
    let r : Replay.result =
      Proc.in_child (fun () ->
          Replay.replay ~files:docs.files ~rcache:p.rcache
            ~jsonl:(Printf.sprintf "trace-%s.jsonl" w.name) p.replay)
    in
    let t = r.Replay.tally in
    {
      workload = w.name; seed;
      attempted = attempted + t.Replay.attempted;
      failed = failed + t.Replay.failed;
      wrong = wrong + t.Replay.wrong;
      metrics = e2e @ extra @ layer @ replay_metrics r;
    }
  end
  else { workload = w.name; seed; attempted; failed; wrong; metrics = e2e @ extra @ layer }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(** Quartiles as Python's [statistics.quantiles xs ~n:4] (exclusive
    method) gives them, and the median. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let q i =
    if n = 1 then a.(0)
    else
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  let med = if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0 in
  (q 1, med, q 3)

let json_metric (name, v, unit) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit

(** Names quoted as ["name": "..."] in a BENCHMARK.json. *)
let names_in file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let key = "\"name\": \"" in
  let rec go i acc =
    match String.index_from_opt text i '"' with
    | None -> acc
    | Some j when j + String.length key <= String.length text
                  && String.sub text j (String.length key) = key ->
      let s = j + String.length key in
      let e = String.index_from text s '"' in
      go (e + 1) (String.sub text s (e - s) :: acc)
    | Some j -> go (j + 1) acc
  in
  go 0 []

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let main () =
  let selected = ref [] and seed = ref 0 and seconds = ref 20.0 and trace = ref 0 in
  let runs = ref 1 and out = ref "" and dir = ref "_build/gqlbench" in
  let inject = ref false and check_names = ref "" in
  let usage = "gqlbench --seed N [--workload W]... [--seconds S] [--trace 0|1] [--runs K]" in
  Arg.parse
    [ ("--workload", Arg.String (fun w -> selected := w :: !selected),
       "W  run workload W (repeatable; default all: "
       ^ String.concat ", " (List.map (fun w -> w.name) workloads) ^ ")");
      ("--seed", Arg.Set_int seed, "N  input seed (default 0)");
      ("--seconds", Arg.Set_float seconds, "S  timed window per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  also run the traced replay (default 0)");
      ("--runs", Arg.Set_int runs, "K  run the workloads K times, interleaved, seeds N..N+K-1");
      ("--out", Arg.Set_string out, "PATH  JSON result file (default DIR/result.json)");
      ("--dir", Arg.Set_string dir, "DIR  working directory (default _build/gqlbench)");
      ("--inject-mismatch", Arg.Set inject, " corrupt one expected answer: the run must fail");
      ("--check-names", Arg.Set_string check_names,
       "FILE  fail unless every metric named in FILE (a BENCHMARK.json) is printed") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let chosen =
    match List.rev !selected with
    | [] -> workloads
    | names ->
      List.map
        (fun n ->
          match List.find_opt (fun w -> w.name = n) workloads with
          | Some w -> w
          | None -> raise (Arg.Bad ("unknown workload " ^ n)))
        names
  in
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
  if !runs < 1 || !seconds <= 0.0 then raise (Arg.Bad "--runs and --seconds must be positive");
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) Server_exe.relative_path
  in
  if not (Sys.file_exists exe) then failwith ("server binary not found: " ^ exe);
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  let out = absolute (if !out = "" then Filename.concat !dir "result.json" else !out) in
  let check_names = if !check_names = "" then None else Some (absolute !check_names) in
  mkdir_p !dir;
  Sys.chdir !dir;
  let results =
    List.concat
      (List.init !runs (fun k ->
           List.map
             (fun w ->
               let r =
                 run_workload ~exe ~seed:(!seed + k) ~seconds:!seconds ~trace:(!trace = 1)
                   ~inject:!inject w
               in
               List.iter
                 (fun (m, v, u) -> Printf.printf "%s %s %s %s\n%!" r.workload m (num v) u)
                 r.metrics;
               r)
             chosen))
  in
  let contract = if !trace = 1 then per_layer else end_to_end in
  let single = List.length results = 1 in
  let summary =
    List.concat_map
      (fun w ->
        List.map
          (fun (m, unit) ->
            let vs =
              List.filter_map
                (fun r ->
                  if r.workload = w.name then
                    List.find_map (fun (m', v, _) -> if m' = m then Some v else None) r.metrics
                  else None)
                results
            in
            let q1, med, q3 = quartiles vs in
            if !runs > 1 then
              Printf.printf "%s %s median=%s q1=%s q3=%s spread=%s %s\n" w.name m (num med)
                (num q1) (num q3) (num ((q3 -. q1) /. med)) unit;
            ((if single then m else w.name ^ "/" ^ m), med, unit))
          contract)
      chosen
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let correct = sum (fun r -> r.wrong) = 0 in
  let oc = open_out out in
  Printf.fprintf oc "{\"seed\": %d, \"seconds\": %s, \"trace\": %d, \"runs\": [\n%s\n]}\n" !seed
    (num !seconds) !trace
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "{\"workload\": %S, \"seed\": %d, \"attempted\": %d, \"failed\": %d, \"wrong\": %d, \"metrics\": {%s}}"
              r.workload r.seed r.attempted r.failed r.wrong
              (String.concat ", " (List.map json_metric r.metrics)))
          results));
  close_out oc;
  let missing =
    match check_names with
    | None -> []
    | Some file ->
      let printed = List.concat_map (fun r -> List.map (fun (m, _, _) -> m) r.metrics) results in
      let listed = names_in file in
      List.filter
        (fun n -> not (List.mem n printed || List.exists (fun w -> w.name = n) workloads))
        listed
      @ List.filter (fun n -> not (List.mem n listed)) (List.map fst (end_to_end @ per_layer))
  in
  List.iter (fun n -> Printf.printf "metric %s is not both printed and listed\n" n) missing;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (sum (fun r -> r.attempted)) (sum (fun r -> r.failed))
    (String.concat ", " (List.map json_metric summary));
  if correct && missing = [] then 0 else 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let interrupted = Sys.Signal_handle (fun _ -> Proc.stop_all (); exit 2) in
  Sys.set_signal Sys.sigint interrupted;
  Sys.set_signal Sys.sigterm interrupted;
  let code =
    match main () with
    | code -> code
    | exception Arg.Bad msg ->
      prerr_endline msg;
      2
    | exception e ->
      prerr_endline ("gqlbench: " ^ Printexc.to_string e);
      2
  in
  Proc.stop_all ();
  exit code
