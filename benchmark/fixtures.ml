(** Seeded inputs: the served documents, the requests the workloads
    draw from, and the expected answer of every request.

    Documents are generated from the run seed and written into the
    working directory, where the server preloads them with [-d].  The
    expected bodies are computed in a child process, before any timing,
    through the library's whole-query entry points — outside every
    server cache — so a served or replayed body that differs is a wrong
    answer. *)

module Gen = Gql_workload.Gen
module Queries = Gql_workload.Queries
module Registry = Gql_server.Registry
module Protocol = Gql_server.Protocol

type lang = Xmlgl | Wglog | Match | Load

let lang_name = function
  | Xmlgl -> "xmlgl"
  | Wglog -> "wglog"
  | Match -> "match"
  | Load -> "load"

type req = {
  label : string;  (** suite name ("Q4", "M5"), primed for a fresh literal *)
  lang : lang;
  doc : string;
  source : string;  (** the query source, or the XML a LOAD installs *)
  schema : string option;
  heavy : bool;  (** overruns its deadline by design: TIMEOUT is the right answer *)
  payload : string;  (** the rendered request frame *)
  mutable expect : string array;  (** expected body, by document variant *)
}

let lang_of source =
  match Gql_core.Gql.language_of_source source with
  | `Xmlgl -> Xmlgl
  | `Wglog -> Wglog
  | `Match -> Match
  | `Unknown -> invalid_arg "query source without a language header"

let run ?deadline_ms ?(heavy = false) ?schema ~label ~doc source =
  {
    label;
    lang = lang_of source;
    doc;
    source;
    schema;
    heavy;
    payload =
      Protocol.render_request
        (Protocol.Run { doc; query = `Source source; schema; deadline_ms });
    expect = [||];
  }

let load ~doc xml =
  {
    label = "LOAD";
    lang = Load;
    doc;
    source = xml;
    schema = None;
    heavy = false;
    payload = Protocol.render_request (Protocol.Load { doc; xml });
    expect = [||];
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let of_suite ?deadline_ms (q : Queries.server_query) =
  run ?deadline_ms ?schema:q.schema ~label:q.sq_name ~doc:q.doc q.source

let suite_entry name =
  List.find (fun (q : Queries.server_query) -> q.sq_name = name)
    Queries.server_suite

let replace ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then invalid_arg ("no " ^ sub ^ " in query")
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else find (i + 1)
  in
  find 0

(** Q2 or M5 with its selection literal replaced by one derived from
    [lit] (0..999): a price over [lit/10] for Q2 (prices run 10-100), a
    menu price of at least [lit/20] for M5 (menus cost 10-50).  Each
    distinct literal is a distinct source text, so it misses the
    prepared-query and plan caches. *)
let with_literal (q : Queries.server_query) lit =
  let source =
    match q.sq_name with
    | "Q2" ->
      replace ~sub:"self > 40"
        ~by:(Printf.sprintf "self > %d.%d" (lit / 10) (lit mod 10))
        q.source
    | "M5" ->
      replace ~sub:"p.value >= 20"
        ~by:(Printf.sprintf "p.value >= %d.%02d" (lit / 20) (lit mod 20 * 5))
        q.source
    | _ -> invalid_arg "with_literal: Q2 or M5 only"
  in
  run ?schema:q.schema ~label:(q.sq_name ^ "'") ~doc:q.doc source

(* The large-graph requests: a 500k-row scan, a ~500k-row regular-path
   closure, and the WG-Log fork-plus-fixpoint over the wide graph. *)
let wide_scan () =
  run ~label:"wide-scan" ~doc:"wide" "MATCH (h:Hub)-[:rel]->(i:Item)\nRETURN h, i\n"

let deep_path ?deadline_ms ?heavy () =
  run ?deadline_ms ?heavy ~label:"deep-path" ~doc:"deep"
    "MATCH (h:Head)-[:next+]->(t:Cell)\nRETURN h, t\n"

let wide_fixpoint () = run ~label:"Q13" ~doc:"wide" Queries.q13_src

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)
(* ------------------------------------------------------------------ *)

(* Four times the E12 document sizes. *)
let xml_docs = [ ("bibliography", 400, 61); ("people", 1600, 62); ("greengrocer", 3200, 63) ]
let restaurants = 800

(* The 1M-node fixtures of the repo's scaling experiments, halved: each
   run generates them, and at 500k nodes generation stays near 3 s and
   0.7 GB peak per graph. *)
let large_nodes = 500_000

let doc_seed seed k = (seed * 1000) + k

let xml_text ~seed (name, size, k) =
  let seed = doc_seed seed k in
  Gql_xml.Printer.to_string
    (match name with
    | "bibliography" -> Gen.bibliography ~seed size
    | "people" -> Gen.people ~seed size
    | "greengrocer" -> Gen.greengrocer ~seed size
    | _ -> invalid_arg name)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let save_graph path g =
  ignore (Gql_data.Store.save ~path (Gql_core.Gql.index (Gql_core.Gql.of_graph g)))

type docs = {
  seed : int;
  large : string list;  (** the large graphs: ["wide"], ["deep"] *)
  files : string list;  (** the server's [-d] files, in the working directory *)
  texts : (string * string array) list;  (** XML source of each variant *)
}

(** A workload's documents.  Variant [v] of an XML document is generated
    from seed [seed + v]; restaurants and the large graphs have one
    variant.  Nothing is written until {!prepare}. *)
let docs ~seed ~variants ~large =
  let texts =
    List.map
      (fun ((name, _, _) as d) ->
        (name, Array.init variants (fun v -> xml_text ~seed:(seed + v) d)))
      xml_docs
  in
  {
    seed;
    large;
    files =
      List.map (fun (n, _) -> n ^ ".xml") texts
      @ [ "restaurants.snap" ] @ List.map (fun g -> g ^ ".snap") large;
    texts;
  }

let write_docs d =
  List.iter (fun (name, t) -> write_file (name ^ ".xml") t.(0)) d.texts;
  save_graph "restaurants.snap" (Gen.restaurants ~seed:(doc_seed d.seed 64) restaurants);
  List.iter
    (function
      | "wide" -> save_graph "wide.snap" (Gen.wide_graph ~seed:(doc_seed d.seed 65) large_nodes)
      | "deep" -> save_graph "deep.snap" (Gen.deep_graph large_nodes)
      | g -> invalid_arg g)
    d.large

let ok = function Ok x -> x | Error m -> failwith m

(** The registry of document variant [v], loaded the way the server
    loads its [-d] files and LOAD bodies. *)
let registry d v =
  let reg = Registry.create () in
  List.iter
    (fun file ->
      let name = Filename.remove_extension file in
      ignore
        (ok
           (match List.assoc_opt name d.texts with
           | Some t -> Registry.load_xml reg ~name t.(v)
           | None -> Registry.load_snapshot reg ~name file)))
    d.files;
  reg

(* ------------------------------------------------------------------ *)
(* Expected answers                                                    *)
(* ------------------------------------------------------------------ *)

let evaluate (snap : Registry.snapshot) (r : req) : string =
  let graph = snap.Registry.db.Gql_core.Gql.graph and index = snap.Registry.index in
  match r.lang with
  | Xmlgl ->
    Gql_core.Gql.to_xml_string
      (Gql_xmlgl.Engine.run_program ~index graph (Gql_core.Gql.parse_xmlgl r.source))
  | Wglog ->
    let schema = ok (Gql_server.Qcache.schema_of_tag r.schema) in
    Gql_server.Server.wglog_stats_line
      (Gql_wglog.Eval.run (Registry.fork snap) (Gql_core.Gql.parse_wglog ?schema r.source))
  | Match -> fst (Gql_match.Eval.run ~index graph (Gql_core.Gql.parse_match r.source))
  | Load -> ""

(** Write the documents into the working directory and set [expect] of
    every request in [reqs]: one evaluation per distinct (doc, source)
    and variant.  Both happen in a child process, so the memory the
    large graphs take is returned before any server starts. *)
let prepare d (reqs : req list) =
  let variants = Array.length (snd (List.hd d.texts)) in
  let bodies : string array list =
    Proc.in_child (fun () ->
        write_docs d;
        let regs = Array.init variants (registry d) in
        let memo = Hashtbl.create 64 in
        let expect (r : req) =
          if r.lang = Load then [||]
          else
            match Hashtbl.find_opt memo (r.doc, r.source) with
            | Some e -> e
            | None ->
              let e = Array.map (fun reg -> evaluate (Option.get (Registry.find reg r.doc)) r) regs in
              Hashtbl.add memo (r.doc, r.source) e;
              e
        in
        List.map expect reqs)
  in
  List.iter2 (fun (r : req) e -> r.expect <- e) reqs bodies
