let esc s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let role_colour = function
  | Diagram.Neutral -> "#333333"
  | Diagram.Query_part -> "#b03030"
  | Diagram.Construct_part -> "#2f7d32"

let render_node buf (n : Diagram.node) =
  let stroke = role_colour n.n_role in
  let cx = n.x +. (n.w /. 2.0) and cy = n.y +. (n.h /. 2.0) in
  (match n.n_shape with
  | Diagram.Box ->
    Printf.bprintf buf
      "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"#fdfdf6\" stroke=\"%s\"/>\n"
      n.x n.y n.w n.h stroke
  | Diagram.Round_box ->
    Printf.bprintf buf
      "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" rx=\"9\" fill=\"#fdfdf6\" stroke=\"%s\"/>\n"
      n.x n.y n.w n.h stroke
  | Diagram.Circle_hollow ->
    Printf.bprintf buf
      "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\" fill=\"white\" stroke=\"%s\"/>\n"
      cx cy (n.w /. 2.0) stroke
  | Diagram.Circle_filled ->
    Printf.bprintf buf
      "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\" fill=\"%s\" stroke=\"%s\"/>\n"
      cx cy (n.w /. 2.0) stroke stroke
  | Diagram.Diamond ->
    Printf.bprintf buf
      "<polygon points=\"%.1f,%.1f %.1f,%.1f %.1f,%.1f %.1f,%.1f\" fill=\"#fdfdf6\" stroke=\"%s\"/>\n"
      cx n.y (n.x +. n.w) cy cx (n.y +. n.h) n.x cy stroke
  | Diagram.Triangle ->
    Printf.bprintf buf
      "<polygon points=\"%.1f,%.1f %.1f,%.1f %.1f,%.1f\" fill=\"#fdfdf6\" stroke=\"%s\"/>\n"
      cx n.y (n.x +. n.w) (n.y +. n.h) n.x (n.y +. n.h) stroke);
  (* label *)
  (match n.n_shape with
  | Diagram.Circle_hollow | Diagram.Circle_filled ->
    if n.n_label <> "" then
      Printf.bprintf buf
        "<text x=\"%.1f\" y=\"%.1f\" font-size=\"11\" font-family=\"sans-serif\" fill=\"#333\">%s</text>\n"
        (n.x +. n.w +. 4.0) (cy +. 4.0) (esc n.n_label)
  | Diagram.Box | Diagram.Round_box | Diagram.Diamond | Diagram.Triangle ->
    Printf.bprintf buf
      "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\" font-size=\"12\" font-family=\"sans-serif\" fill=\"#111\">%s</text>\n"
      cx (cy +. 4.0) (esc n.n_label));
  match n.n_note with
  | Some note ->
    Printf.bprintf buf
      "<text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" font-family=\"sans-serif\" fill=\"#777\">%s</text>\n"
      (n.x +. n.w -. 4.0) (n.y -. 2.0) (esc note)
  | None -> ()

(* Intersect the segment from the node centre towards (tx,ty) with the
   node's bounding box, so arrows start/stop at borders. *)
let border_point (n : Diagram.node) (tx, ty) =
  let cx = n.x +. (n.w /. 2.0) and cy = n.y +. (n.h /. 2.0) in
  let dx = tx -. cx and dy = ty -. cy in
  if dx = 0.0 && dy = 0.0 then (cx, cy)
  else begin
    let sx = if dx = 0.0 then infinity else (n.w /. 2.0) /. Float.abs dx in
    let sy = if dy = 0.0 then infinity else (n.h /. 2.0) /. Float.abs dy in
    let s = Float.min sx sy in
    (cx +. (dx *. s), cy +. (dy *. s))
  end

let render_edge buf (d : Diagram.t) (e : Diagram.edge) =
  let src = Diagram.node_by_id d e.e_src in
  let dst = Diagram.node_by_id d e.e_dst in
  let scx = src.x +. (src.w /. 2.0) and scy = src.y +. (src.h /. 2.0) in
  let dcx = dst.x +. (dst.w /. 2.0) and dcy = dst.y +. (dst.h /. 2.0) in
  let x1, y1 = border_point src (dcx, dcy) in
  let x2, y2 = border_point dst (scx, scy) in
  let colour = role_colour e.e_role in
  let width = if e.e_thick then "2.6" else "1.2" in
  let dash =
    match e.e_style with
    | Diagram.Dashed -> " stroke-dasharray=\"6,4\""
    | Diagram.Solid | Diagram.Crossed -> ""
  in
  Printf.bprintf buf
    "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\" stroke-width=\"%s\"%s marker-end=\"url(#arr)\"/>\n"
    x1 y1 x2 y2 colour width dash;
  (* cross mark for negation *)
  (if e.e_style = Diagram.Crossed then begin
     let mx = (x1 +. x2) /. 2.0 and my = (y1 +. y2) /. 2.0 in
     Printf.bprintf buf
       "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\" stroke-width=\"1.6\"/>\n"
       (mx -. 5.0) (my -. 5.0) (mx +. 5.0) (my +. 5.0) colour;
     Printf.bprintf buf
       "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\" stroke-width=\"1.6\"/>\n"
       (mx -. 5.0) (my +. 5.0) (mx +. 5.0) (my -. 5.0) colour
   end);
  if e.e_label <> "" then begin
    let mx = (x1 +. x2) /. 2.0 and my = (y1 +. y2) /. 2.0 in
    Printf.bprintf buf
      "<text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" font-family=\"sans-serif\" fill=\"%s\">%s</text>\n"
      (mx +. 4.0) (my -. 3.0) colour (esc e.e_label)
  end

(** Render a laid-out diagram to a standalone SVG document. *)
let render (d : Diagram.t) : string =
  let w, h = Diagram.extent d in
  let w = w +. 30.0 and h = h +. 40.0 in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n"
    w h w h;
  Buffer.add_string buf
    "<defs><marker id=\"arr\" markerWidth=\"9\" markerHeight=\"7\" refX=\"8\" refY=\"3.5\" orient=\"auto\"><polygon points=\"0 0, 9 3.5, 0 7\" fill=\"#555\"/></marker></defs>\n";
  Printf.bprintf buf
    "<text x=\"12\" y=\"%.1f\" font-size=\"12\" font-family=\"sans-serif\" font-style=\"italic\" fill=\"#555\">%s</text>\n"
    (h -. 12.0) (esc d.Diagram.title);
  List.iter (render_edge buf d) (Diagram.edges d);
  List.iter (render_node buf) (Diagram.nodes d);
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let render_auto (d : Diagram.t) : string =
  Layout.layered d;
  render d

let write_file path (d : Diagram.t) =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (render_auto d))
