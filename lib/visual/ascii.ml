let delims = function
  | Diagram.Box -> ("[", "]")
  | Diagram.Round_box -> ("(", ")")
  | Diagram.Circle_hollow -> ("o(", ")")
  | Diagram.Circle_filled -> ("*(", ")")
  | Diagram.Diamond -> ("<", ">")
  | Diagram.Triangle -> ("/", "\\")

let role_tag = function
  | Diagram.Neutral -> ""
  | Diagram.Query_part -> "?"
  | Diagram.Construct_part -> "!"

let render (d : Diagram.t) : string =
  let scale_x = 0.14 and scale_y = 0.055 in
  let nodes = Diagram.nodes d in
  let w, h = Diagram.extent d in
  let cols = int_of_float (w *. scale_x) + 30 in
  let rows = int_of_float (h *. scale_y) + 2 in
  let grid = Array.make_matrix rows cols ' ' in
  let put_string r c s =
    String.iteri
      (fun i ch ->
        let c' = c + i in
        if r >= 0 && r < rows && c' >= 0 && c' < cols then grid.(r).(c') <- ch)
      s
  in
  List.iter
    (fun (n : Diagram.node) ->
      let r = int_of_float (n.Diagram.y *. scale_y) in
      let c = int_of_float (n.Diagram.x *. scale_x) in
      let l, rdelim = delims n.n_shape in
      let label = if n.n_label = "" then "." else n.n_label in
      put_string r c
        (Printf.sprintf "%s%s%s%s" l label rdelim (role_tag n.n_role)))
    nodes;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "-- %s --\n" d.Diagram.title);
  Array.iter
    (fun row ->
      let line = String.init cols (fun i -> row.(i)) in
      let trimmed =
        let len = ref (String.length line) in
        while !len > 0 && line.[!len - 1] = ' ' do
          decr len
        done;
        String.sub line 0 !len
      in
      if trimmed <> "" then begin
        Buffer.add_string buf trimmed;
        Buffer.add_char buf '\n'
      end)
    grid;
  let name id =
    let n = Diagram.node_by_id d id in
    if n.n_label = "" then Printf.sprintf "#%d" id else n.n_label
  in
  List.iter
    (fun (e : Diagram.edge) ->
      let style =
        match e.e_style with
        | Diagram.Solid -> if e.e_thick then "==>" else "-->"
        | Diagram.Dashed -> "-->>"
        | Diagram.Crossed -> "-X->"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s %s %s%s%s\n" (name e.e_src) style (name e.e_dst)
           (if e.e_label = "" then "" else " : " ^ e.e_label)
           (match e.e_role with
           | Diagram.Query_part -> "  (query)"
           | Diagram.Construct_part -> "  (construct)"
           | Diagram.Neutral -> "")))
    (Diagram.edges d);
  Buffer.contents buf

let render_auto (d : Diagram.t) : string =
  Layout.layered d;
  render d
