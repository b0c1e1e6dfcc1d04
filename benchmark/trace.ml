(** Spans around layer calls, kept in memory and written out at the end.

    A span records its name, the request it belongs to, its parent, its
    start and end, and the minor and major heap words the calling domain
    allocated meanwhile.  Storage is a set of growable unboxed arrays,
    so recording a span allocates almost nothing.  With [on] false,
    {!span} only calls its argument: the untraced replay runs the same
    code, which is what makes the difference between the two the
    tracing overhead. *)

(** Every span name the replay records, in a fixed order. *)
let names =
  [| "request"; "setup"; "protocol.parse_request"; "protocol.render_response";
     "lang.parse"; "qcache.find"; "rcache.find"; "pcache.find"; "match.compile";
     "match.job"; "algebra.plan"; "algebra.exec"; "match.render"; "xmlgl.match";
     "xmlgl.construct"; "xml.print"; "registry.fork"; "wglog.fixpoint";
     "xml.load"; "index.build"; "store.load" |]

let id name =
  let rec go i = if names.(i) = name then i else go (i + 1) in
  go 0

let on = ref false
let request = ref 0

type buf = {
  mutable n : int;
  mutable name : int array;
  mutable req : int array;
  mutable parent : int array;
  mutable rows : int array;
  mutable bytes : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable minor : float array;  (** words allocated, set at open, made a delta at close *)
  mutable major : float array;
}

let b =
  { n = 0; name = [||]; req = [||]; parent = [||]; rows = [||]; bytes = [||];
    t0 = [||]; t1 = [||]; minor = [||]; major = [||] }

let current = ref (-1)
let last = ref (-1)

let reset () =
  b.n <- 0;
  current := -1;
  last := -1

let grow () =
  let cap = max 1024 (2 * b.n) in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  b.name <- ints b.name;
  b.req <- ints b.req;
  b.parent <- ints b.parent;
  b.rows <- ints b.rows;
  b.bytes <- ints b.bytes;
  b.t0 <- floats b.t0;
  b.t1 <- floats b.t1;
  b.minor <- floats b.minor;
  b.major <- floats b.major

let open_ sid =
  if b.n = Array.length b.name then grow ();
  let i = b.n in
  b.n <- i + 1;
  b.name.(i) <- sid;
  b.req.(i) <- !request;
  b.parent.(i) <- !current;
  b.rows.(i) <- 0;
  b.bytes.(i) <- 0;
  current := i;
  let minor, _, major = Gc.counters () in
  b.minor.(i) <- minor;
  b.major.(i) <- major;
  b.t0.(i) <- Unix.gettimeofday ();
  i

let close i =
  b.t1.(i) <- Unix.gettimeofday ();
  let minor, _, major = Gc.counters () in
  b.minor.(i) <- minor -. b.minor.(i);
  b.major.(i) <- major -. b.major.(i);
  current := b.parent.(i);
  last := i

(** [span sid f] runs [f] inside a span named [names.(sid)]. *)
let span sid f =
  if not !on then f ()
  else begin
    let i = open_ sid in
    match f () with
    | v ->
      close i;
      v
    | exception e ->
      close i;
      raise e
  end

(** Attach a row or byte count to the span that closed last. *)
let note ?(rows = 0) ?(bytes = 0) () =
  if !on && !last >= 0 then begin
    b.rows.(!last) <- b.rows.(!last) + rows;
    b.bytes.(!last) <- b.bytes.(!last) + bytes
  end

(** Rename the span that closed last (a cache lookup that turned out
    to be a parse, say). *)
let rename sid = if !on && !last >= 0 then b.name.(!last) <- sid

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type agg = {
  calls : int;
  self_ms : float;  (** duration minus the time its children cover *)
  p50_us : float;  (** median duration per call *)
  minor_words : float;  (** self minor words per call *)
  major_words : float;
  rows : int;
  bytes : int;
}

let median sorted =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.((n - 1) / 2)

(** Per span name, and the sum of all self times in seconds. *)
let aggregate () : agg array * float =
  let n = b.n in
  let child_t = Array.make n 0.0 and child_mn = Array.make n 0.0 and child_mj = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let p = b.parent.(i) in
    if p >= 0 then begin
      child_t.(p) <- child_t.(p) +. (b.t1.(i) -. b.t0.(i));
      child_mn.(p) <- child_mn.(p) +. b.minor.(i);
      child_mj.(p) <- child_mj.(p) +. b.major.(i)
    end
  done;
  let k = Array.length names in
  let calls = Array.make k 0 and self = Array.make k 0.0 and mn = Array.make k 0.0
  and mj = Array.make k 0.0 and rows = Array.make k 0 and bytes = Array.make k 0
  and durs = Array.make k [] in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let s = b.name.(i) and d = b.t1.(i) -. b.t0.(i) in
    calls.(s) <- calls.(s) + 1;
    self.(s) <- self.(s) +. (d -. child_t.(i));
    total := !total +. (d -. child_t.(i));
    mn.(s) <- mn.(s) +. (b.minor.(i) -. child_mn.(i));
    mj.(s) <- mj.(s) +. (b.major.(i) -. child_mj.(i));
    rows.(s) <- rows.(s) + b.rows.(i);
    bytes.(s) <- bytes.(s) + b.bytes.(i);
    durs.(s) <- d :: durs.(s)
  done;
  let per c x = if c = 0 then 0.0 else x /. float_of_int c in
  ( Array.init k (fun s ->
        let sorted = Array.of_list durs.(s) in
        Array.sort compare sorted;
        {
          calls = calls.(s);
          self_ms = self.(s) *. 1e3;
          p50_us = median sorted *. 1e6;
          minor_words = per calls.(s) mn.(s);
          major_words = per calls.(s) mj.(s);
          rows = rows.(s);
          bytes = bytes.(s);
        }),
    !total )

(** One JSON object per span, in opening order: a span's [parent] is
    the 0-based line of its parent span, -1 for a root; times are
    microseconds from the first span; words are inclusive of children. *)
let write_jsonl path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      let origin = if b.n > 0 then b.t0.(0) else 0.0 in
      for i = 0 to b.n - 1 do
        Printf.fprintf oc
          "{\"req\":%d,\"span\":%S,\"parent\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\
           \"minor_words\":%.0f,\"major_words\":%.0f,\"rows\":%d,\"bytes\":%d}\n"
          b.req.(i) names.(b.name.(i)) b.parent.(i)
          ((b.t0.(i) -. origin) *. 1e6) ((b.t1.(i) -. origin) *. 1e6)
          b.minor.(i) b.major.(i) b.rows.(i) b.bytes.(i)
      done)
