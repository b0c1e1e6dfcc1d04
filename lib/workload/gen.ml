open Gql_xml.Tree

let first_names =
  [| "Serge"; "Sara"; "Dan"; "Stefano"; "Letizia"; "Paolo"; "Ernesto";
     "Alice"; "Bob"; "Carla"; "David"; "Eva"; "Franz"; "Greta" |]

let last_names =
  [| "Abiteboul"; "Comai"; "Suciu"; "Ceri"; "Tanca"; "Fraternali";
     "Damiani"; "Smith"; "Jones"; "Miller"; "Weber"; "Rossi"; "Kim" |]

let words =
  [| "Data"; "Web"; "Query"; "Graph"; "Semi"; "Structured"; "Visual";
     "Language"; "System"; "Model"; "XML"; "Information"; "Pattern" |]

let title rng =
  Printf.sprintf "%s %s %s" (Prng.pick rng words) (Prng.pick rng words)
    (Prng.pick rng words)

(* --- bibliography ---------------------------------------------------- *)

let book_dtd_text =
  "<!ELEMENT bib (BOOK*)>\n\
   <!ELEMENT BOOK (title?,price,AUTHOR*)>\n\
   <!ATTLIST BOOK isbn CDATA #REQUIRED>\n\
   <!ELEMENT title (#PCDATA)>\n\
   <!ELEMENT price (#PCDATA)>\n\
   <!ELEMENT AUTHOR (first-name,last-name)>\n\
   <!ELEMENT first-name (#PCDATA)>\n\
   <!ELEMENT last-name (#PCDATA)>"

let book_dtd = Gql_dtd.Parse.parse_subset ~root_hint:"bib" book_dtd_text

let bibliography ?(seed = 42) ?(defect_rate = 0.0) n : doc =
  let rng = Prng.create seed in
  let author () =
    elt "AUTHOR"
      [
        elt "first-name" [ text (Prng.pick rng first_names) ];
        elt "last-name" [ text (Prng.pick rng last_names) ];
      ]
  in
  let book i =
    let defective = Prng.float rng < defect_rate in
    let isbn = Printf.sprintf "89-%05d-%d" i (Prng.int rng 10) in
    let title_el =
      if Prng.int rng 10 < 8 then [ elt "title" [ text (title rng) ] ] else []
    in
    let price_el =
      [ elt "price" [ text (Printf.sprintf "%d.%02d" (10 + Prng.int rng 90) (Prng.int rng 100)) ] ]
    in
    let authors = List.init (Prng.int rng 4) (fun _ -> author ()) in
    if not defective then
      elt ~attrs:[ ("isbn", isbn) ] "BOOK" (title_el @ price_el @ authors)
    else
      match Prng.int rng 3 with
      | 0 ->
        (* missing price *)
        elt ~attrs:[ ("isbn", isbn) ] "BOOK" (title_el @ authors)
      | 1 ->
        (* title after price: an ordered-content violation *)
        elt ~attrs:[ ("isbn", isbn) ] "BOOK"
          (price_el @ title_el @ authors)
      | _ ->
        (* author missing the last name *)
        elt ~attrs:[ ("isbn", isbn) ] "BOOK"
          (title_el @ price_el
          @ [ elt "AUTHOR" [ elt "first-name" [ text (Prng.pick rng first_names) ] ] ])
  in
  doc (element "bib" (List.map book (List.init n Fun.id)))

(* --- greengrocer ------------------------------------------------------ *)

let vegetables =
  [| "cabbage"; "carrot"; "leek"; "potato"; "onion"; "spinach" |]

let fruits = [| "cherry"; "apple"; "pear"; "plum"; "grape"; "peach" |]

let vendor_names =
  [| "DeRuiter"; "Lafayette"; "VanDam"; "Miller"; "VanHouten"; "Smith";
     "Garcia"; "Rossi" |]

let countries = [| "holland"; "france"; "germany"; "italy"; "spain" |]

let greengrocer ?(seed = 7) ?(vendors = 5) n : doc =
  let rng = Prng.create seed in
  let vendors = max 1 (min vendors (Array.length vendor_names)) in
  let vendor i =
    elt "vendor"
      [
        elt "country" [ text countries.(i mod Array.length countries) ];
        elt "name" [ text vendor_names.(i) ];
      ]
  in
  let product _ =
    let is_fruit = Prng.bool rng in
    let name = Prng.pick rng (if is_fruit then fruits else vegetables) in
    elt "product"
      [
        elt "type" [ text (if is_fruit then "fruit" else "vegetable") ];
        elt "name" [ text name ];
        elt "price"
          [
            elt "unit" [ text (if Prng.bool rng then "kilo" else "piece") ];
            elt "value" [ text (Printf.sprintf "%d.%02d" (Prng.int rng 5) (Prng.int rng 100)) ];
          ];
        elt "vendor" [ text vendor_names.(Prng.int rng vendors) ];
      ]
  in
  doc
    (element "greengrocer"
       [
         Element (element "products" (List.init n product));
         Element
           (element "vendors" (List.init vendors vendor));
       ])

(* --- people ----------------------------------------------------------- *)

let people ?(seed = 11) ?(with_addr = 0.7) ?(companies = 8) n : doc =
  let rng = Prng.create seed in
  let company i = Printf.sprintf "company-%d" (i mod companies) in
  let person i =
    let fn = Prng.pick rng first_names and ln = Prng.pick rng last_names in
    let base =
      [
        elt "firstname" [ text fn ];
        elt "lastname" [ text ln ];
        elt "age" [ text (string_of_int (16 + Prng.int rng 60)) ];
        elt "salary" [ text (string_of_int (15000 + (Prng.int rng 40) * 1000)) ];
        elt "employer" [ text (company i) ];
      ]
    in
    let addr =
      if Prng.float rng < with_addr then
        [
          elt "FULLADDR"
            [
              elt "street" [ text (Printf.sprintf "%d %s street" (1 + Prng.int rng 200) (Prng.pick rng words)) ];
              elt "city" [ text (Prng.pick rng [| "Milano"; "Paris"; "Munich"; "Stanford"; "Delft" |]) ];
            ];
        ]
      else []
    in
    elt ~attrs:[ ("id", Printf.sprintf "p%d" i) ] "PERSON" (base @ addr)
  in
  doc (element "people" (List.init n person))

(* --- hyperdocuments ---------------------------------------------------- *)

let hyperdocs ?(seed = 3) ?(fanout = 4) ?(link_factor = 2) n : Gql_data.Graph.t =
  let open Gql_data in
  let rng = Prng.create seed in
  let g = Graph.create () in
  let docs =
    Array.init n (fun i ->
        let d = Graph.add_complex g "Document" in
        let t = Graph.add_atom g (Value.string (Printf.sprintf "doc-%d" i)) in
        Graph.link g ~src:d ~dst:t (Graph.attr_edge "title");
        d)
  in
  if n > 0 then Graph.add_root g docs.(0);
  (* index tree: document i indexes children fanout*i+1 .. fanout*i+fanout *)
  Array.iteri
    (fun i d ->
      for k = 1 to fanout do
        let j = (fanout * i) + k in
        if j < n then Graph.link g ~src:d ~dst:docs.(j) (Graph.rel_edge "index")
      done)
    docs;
  (* random cross links *)
  for _ = 1 to link_factor * n do
    let a = Prng.int rng n and b = Prng.int rng n in
    if a <> b then Graph.link g ~src:docs.(a) ~dst:docs.(b) (Graph.rel_edge "link")
  done;
  g

let restaurants ?(seed = 5) ?(menu_fraction = 0.6) n : Gql_data.Graph.t =
  let open Gql_data in
  let rng = Prng.create seed in
  let g = Graph.create () in
  let cities =
    Array.map
      (fun name ->
        let c = Graph.add_complex g "City" in
        let v = Graph.add_atom g (Value.string name) in
        Graph.link g ~src:c ~dst:v (Graph.attr_edge "name");
        c)
      [| "Milano"; "Como"; "Torino"; "Roma" |]
  in
  for i = 0 to n - 1 do
    let r = Graph.add_complex g "Restaurant" in
    if i = 0 then Graph.add_root g r;
    let nm = Graph.add_atom g (Value.string (Printf.sprintf "Trattoria %d" i)) in
    Graph.link g ~src:r ~dst:nm (Graph.attr_edge "name");
    Graph.link g ~src:r ~dst:(Prng.pick rng cities) (Graph.rel_edge "located-in");
    if Prng.float rng < menu_fraction then begin
      let menus = 1 + Prng.int rng 3 in
      for m = 1 to menus do
        let menu = Graph.add_complex g "Menu" in
        let mn = Graph.add_atom g (Value.string (Printf.sprintf "menu-%d-%d" i m)) in
        let mp =
          Graph.add_atom g (Value.float (10.0 +. (Prng.float rng *. 40.0)))
        in
        Graph.link g ~src:menu ~dst:mn (Graph.attr_edge "name");
        Graph.link g ~src:menu ~dst:mp (Graph.attr_edge "price");
        Graph.link g ~src:r ~dst:menu (Graph.rel_edge "offers")
      done
    end
  done;
  g

(* --- labelled entity graphs -------------------------------------------- *)

let labelled_graph ?(seed = 17) ?(labels = 100) ?(per_label = 500)
    ?(degree = 3) () : Gql_data.Graph.t =
  let open Gql_data in
  let rng = Prng.create seed in
  let g = Graph.create () in
  let nodes = Array.make_matrix labels per_label (-1) in
  for l = 0 to labels - 1 do
    let lbl = Printf.sprintf "L%d" l in
    for i = 0 to per_label - 1 do
      let e = Graph.add_complex g lbl in
      let k =
        Graph.add_atom g (Value.string (Printf.sprintf "k-%d" ((l * per_label) + i)))
      in
      Graph.link g ~src:e ~dst:k (Graph.attr_edge "key");
      nodes.(l).(i) <- e
    done
  done;
  if labels > 0 && per_label > 0 then Graph.add_root g nodes.(0).(0);
  for l = 0 to labels - 1 do
    let next = (l + 1) mod labels in
    for i = 0 to per_label - 1 do
      for _ = 1 to degree do
        let j = Prng.int rng per_label in
        Graph.link g ~src:nodes.(l).(i) ~dst:nodes.(next).(j)
          (Graph.rel_edge "rel")
      done
    done
  done;
  g

(* --- million-node parallel-scaling fixtures ----------------------------- *)

(* The E13v2 graphs: entity graphs big enough (>= 1M nodes) that domain-
   parallel matching has real work to split, each stressing a different
   shape of the chunk scheduler.  All three keep the *first choice
   point* small — the fail-first scorer starts from the rarest label —
   so the per-seed completion work, not the seed count, carries the
   cost; that is exactly the shape where per-chunk setup used to
   dominate.  No atoms are attached: every node is a labelled entity,
   so node count == entity count. *)

let wide_graph ?(seed = 19) ?(hubs = 1024) n : Gql_data.Graph.t =
  let open Gql_data in
  let rng = Prng.create seed in
  let g = Graph.create () in
  let hubs = max 1 hubs in
  let hub_nodes = Array.init hubs (fun _ -> Graph.add_complex g "Hub") in
  Graph.add_root g hub_nodes.(0);
  for _ = 1 to n do
    let item = Graph.add_complex g "Item" in
    Graph.link g ~src:hub_nodes.(Prng.int rng hubs) ~dst:item
      (Graph.rel_edge "rel")
  done;
  g

let deep_graph ?(seed = 23) ?(chains = 2048) n : Gql_data.Graph.t =
  let open Gql_data in
  ignore seed;
  let g = Graph.create () in
  let chains = max 1 chains in
  let depth = max 2 (n / chains) in
  for c = 0 to chains - 1 do
    let head = Graph.add_complex g "Head" in
    if c = 0 then Graph.add_root g head;
    let prev = ref head in
    for _ = 2 to depth do
      let cell = Graph.add_complex g "Cell" in
      Graph.link g ~src:!prev ~dst:cell (Graph.rel_edge "next");
      prev := cell
    done
  done;
  g

let skewed_graph ?(seed = 29) ?(groups = 512) n : Gql_data.Graph.t =
  let open Gql_data in
  let g = Graph.create () in
  ignore seed;
  let groups = max 1 groups in
  let harmonic =
    let h = ref 0.0 in
    for i = 1 to groups do
      h := !h +. (1.0 /. float_of_int i)
    done;
    !h
  in
  let group_nodes = Array.init groups (fun _ -> Graph.add_complex g "Group") in
  Graph.add_root g group_nodes.(0);
  Array.iteri
    (fun i grp ->
      let share =
        int_of_float (float_of_int n /. (float_of_int (i + 1) *. harmonic))
      in
      for _ = 1 to max 1 share do
        let m = Graph.add_complex g "Member" in
        Graph.link g ~src:grp ~dst:m (Graph.rel_edge "member")
      done)
    group_nodes;
  g

(* --- random trees ------------------------------------------------------ *)

let tag_pool = [| "a"; "b"; "c"; "d"; "e"; "item"; "entry"; "node" |]

let random_tree ?(seed = 13) ?(fanout = 4) ?(ref_density = 0.05) n : doc =
  let rng = Prng.create seed in
  let counter = ref 0 in
  let rec build budget depth =
    incr counter;
    let me = !counter in
    let attrs = [ ("id", Printf.sprintf "n%d" me) ] in
    let attrs =
      if Prng.float rng < ref_density && me > 1 then
        ("ref", Printf.sprintf "n%d" (1 + Prng.int rng (me - 1))) :: attrs
      else attrs
    in
    let children =
      if budget <= 1 || depth > 14 then
        [ Text (Printf.sprintf "%d" (Prng.int rng 1000)) ]
      else begin
        let k = 1 + Prng.int rng fanout in
        let share = max 1 ((budget - 1) / k) in
        List.init k (fun _ -> Element (build share (depth + 1)))
      end
    in
    element ~attrs (Prng.pick rng tag_pool) children
  in
  doc (build n 0)
