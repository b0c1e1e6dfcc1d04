type repro = {
  seed : int;
  oracle : string;
  detail : string;
  graph_seed : int;
  source : string;
  xml : string;
}

let render (r : repro) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# gql fuzz minimized repro\n";
  Printf.bprintf buf "seed: %d\n" r.seed;
  Printf.bprintf buf "oracle: %s\n" r.oracle;
  (* keep the detail single-line so the header stays line-oriented *)
  let detail =
    String.map (function '\n' | '\r' -> ' ' | c -> c) r.detail
  in
  Printf.bprintf buf "detail: %s\n" detail;
  Printf.bprintf buf "graph_seed: %d\n" r.graph_seed;
  Buffer.add_string buf "--- query\n";
  Buffer.add_string buf r.source;
  if r.source <> "" && r.source.[String.length r.source - 1] <> '\n' then
    Buffer.add_char buf '\n';
  Buffer.add_string buf "--- doc\n";
  Buffer.add_string buf r.xml;
  if r.xml <> "" && r.xml.[String.length r.xml - 1] <> '\n' then
    Buffer.add_char buf '\n';
  Buffer.contents buf

let filename (r : repro) = Printf.sprintf "seed%d-%s.repro" r.seed r.oracle

let write ~(dir : string) (r : repro) : string =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename r) in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (render r));
  path

let parse (text : string) : repro =
  let lines = String.split_on_char '\n' text in
  let headers = Hashtbl.create 8 in
  let query = ref [] and doc = ref [] in
  let section = ref `Header in
  List.iter
    (fun line ->
      match !section, line with
      | _, "--- query" -> section := `Query
      | _, "--- doc" -> section := `Doc
      | `Header, line -> (
        if String.length line > 0 && line.[0] <> '#' then
          match String.index_opt line ':' with
          | Some i ->
            let key = String.sub line 0 i in
            let v =
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            in
            Hashtbl.replace headers key v
          | None -> ())
      | `Query, line -> query := line :: !query
      | `Doc, line -> doc := line :: !doc)
    lines;
  let get key default =
    match Hashtbl.find_opt headers key with Some v -> v | None -> default
  in
  let section_text rev_lines =
    (* the file's final newline invents one trailing empty line *)
    let lines =
      match rev_lines with "" :: rest -> List.rev rest | l -> List.rev l
    in
    String.concat "\n" lines
  in
  {
    seed = int_of_string (get "seed" "0");
    oracle = get "oracle" "";
    detail = get "detail" "";
    graph_seed = int_of_string (get "graph_seed" "0");
    source = section_text !query;
    xml = section_text !doc;
  }
