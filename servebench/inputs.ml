(* Seeded inputs for the three workloads, and the expectations the
   responses are checked against.  The program under test only ever sees
   the files written here. *)

module GP = Graphql_pg
module G = GP.Property_graph
module Value = GP.Value
module V = GP.Violation

type workload = Serve_pgf | Serve_snapshot | Serve_violations

let workloads = [ ("serve_pgf", Serve_pgf); ("serve_snapshot", Serve_snapshot); ("serve_violations", Serve_violations) ]

type shape = {
  persons : int;  (** size of the served graph (Social generator) *)
  clients : int;  (** closed-loop connections *)
  snapshot : bool;  (** sent as a persisted snapshot rather than PGF *)
  planted : bool;  (** key collisions, shared moderators and mutations *)
}

let shape = function
  | Serve_pgf -> { persons = 2_000; clients = 1; snapshot = false; planted = false }
  | Serve_snapshot -> { persons = 10_000; clients = 2; snapshot = true; planted = false }
  | Serve_violations -> { persons = 2_000; clients = 1; snapshot = true; planted = true }

(* The spec engine [Naive] is quadratic (2.5 min on the 2,000-person
   graph), so the rule-by-rule comparison with it runs on a twin: the
   same generator, seed and planting recipe at [twin_persons], served by
   the same server in the same input form at set-up. *)
let twin_persons = 200

type recipe = {
  key_groups : int;  (** Person @key collision groups (DS7) *)
  key_size : int;
  mod_groups : int;  (** Forums sharing one moderator (DS3, @uniqueForTarget) *)
  mod_size : int;
  mutations : V.rule list;  (** Corruption.mutate, one per entry *)
}

(* On the served graph the extra mutations are the ones a spec check can
   confirm at that size ([Naive.strong_extra] is linear) and that cannot
   add a DS7/DS3 pair, so the Σ C(k,2) oracle stays exact.  The twin
   takes one mutation aimed at each of the other thirteen rules. *)
let served_recipe =
  {
    key_groups = 32;
    key_size = 32;
    mod_groups = 16;
    mod_size = 4;
    mutations = List.concat (List.init 8 (fun _ -> [ V.SS2; V.SS3; V.SS4 ]));
  }

let twin_recipe =
  {
    key_groups = 4;
    key_size = 8;
    mod_groups = 3;
    mod_size = 3;
    mutations = V.[ WS1; WS2; WS3; WS4; DS1; DS2; DS4; DS5; DS6; SS1; SS2; SS3; SS4 ];
  }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let labelled g label = Array.of_list (List.filter (fun v -> G.node_label g v = label) (G.nodes g))

let chunks n size a = List.init n (fun i -> Array.to_list (Array.sub a (i * size) size))

let key_value gi = Printf.sprintf "dup%d" gi
let forum_title g f = match G.node_prop g f "title" with Some (Value.String s) -> s | _ -> ""

(* Plant the recipe; returns the graph and, per moderator group, the
   titles of its forums (titles survive the PGF round trip, ids need
   not). *)
let plant ~seed r g =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let persons = labelled g "Person" in
  shuffle rng persons;
  let g =
    List.fold_left
      (fun g (gi, members) ->
        List.fold_left (fun g v -> G.set_node_prop g v "id" (Value.Id (key_value gi))) g members)
      g
      (List.mapi (fun gi m -> (gi, m)) (chunks r.key_groups r.key_size persons))
  in
  let forums = labelled g "Forum" in
  shuffle rng forums;
  let moderator g f = List.find (fun e -> G.edge_label g e = "moderator") (G.out_edges g f) in
  let mod_groups = chunks r.mod_groups r.mod_size forums in
  let g =
    List.fold_left
      (fun g group ->
        match group with
        | [] -> g
        | first :: rest ->
          let _, target = G.edge_ends g (moderator g first) in
          List.fold_left
            (fun g f ->
              let g = G.remove_edge g (moderator g f) in
              fst (G.add_edge g ~label:"moderator" f target))
            g rest)
      g mod_groups
  in
  let sch = Pg_gen.Social.schema () in
  let mrng = Random.State.make [| seed; 0xc0de |] in
  let g =
    List.fold_left
      (fun g rule -> match Pg_gen.Corruption.mutate rule sch mrng g with Some g -> g | None -> g)
      g r.mutations
  in
  (g, List.map (List.map (forum_title g)) mod_groups)

let nid v = "n" ^ string_of_int (G.node_id v)
let eid e = "e" ^ string_of_int (G.edge_id e)

let subject_ids = function
  | V.Node v | V.Node_property (v, _) -> [ "n" ^ string_of_int v ]
  | V.Edge e | V.Edge_property (e, _) -> [ "e" ^ string_of_int e ]
  | V.Node_pair (a, b) -> [ "n" ^ string_of_int a; "n" ^ string_of_int b ]
  | V.Edge_pair (a, b) -> [ "e" ^ string_of_int a; "e" ^ string_of_int b ]

let pairwise = [ V.DS7; V.DS3 ]

(* Expectation from a spec engine's violations: pairwise rules become
   groups (components of their pairs), the rest (code, ids). *)
let expectation_of_spec g violations : Servebench.Checks.expectation =
  let code v = V.rule_name v.V.rule in
  let groups =
    List.filter_map
      (fun rule ->
        let pairs =
          List.filter_map
            (fun v ->
              if v.V.rule <> rule then None
              else match subject_ids v.V.subject with [ a; b ] -> Some (a, b) | _ -> None)
            violations
        in
        if pairs = [] then None
        else Some (V.rule_name rule, Servebench.Checks.groups_of_pairs pairs))
      pairwise
  in
  {
    nodes = G.node_count g;
    edges = G.edge_count g;
    groups;
    others =
      List.filter_map
        (fun v -> if List.mem v.V.rule pairwise then None else Some (code v, subject_ids v.V.subject))
        violations;
  }

let naive_all g =
  let sch = Pg_gen.Social.schema () in
  GP.Naive.weak sch g @ GP.Naive.directives sch g @ GP.Naive.strong_extra sch g

(* The served graph's expectation: DS7 and DS3 groups from what was
   planted (the Σ C(k,2) oracle), everything else from the spec's
   SS1–SS4 pass — the only rules the recipe's mutations aim at. *)
let planted_expectation g ~mod_titles r : Servebench.Checks.expectation =
  let key_groups =
    List.init r.key_groups (fun gi ->
      List.filter (fun v -> G.node_prop g v "id" = Some (Value.Id (key_value gi))) (G.nodes g)
      |> List.filter (fun v -> G.node_label g v = "Person")
      |> List.map nid)
  in
  let mod_groups =
    List.map
      (fun titles ->
        G.edges g
        |> List.filter (fun e ->
               G.edge_label g e = "moderator" && List.mem (forum_title g (fst (G.edge_ends g e))) titles)
        |> List.map eid)
      mod_titles
  in
  let spec = expectation_of_spec g (GP.Naive.strong_extra (Pg_gen.Social.schema ()) g) in
  {
    spec with
    groups = [ ("DS7", key_groups); ("DS3", mod_groups) ];
  }

(* Write [g] as PGF and read it back: ids in the expectation must be the
   ones the server sees after its own load. *)
let write_pgf path g =
  GP.Pgf.save path g;
  match GP.Pgf.load path with
  | Ok g -> g
  | Error e -> failwith (Format.asprintf "%s: %a" path GP.Pgf.pp_error e)

type prepared = {
  graph_pgf : string;
  nodes : int;  (** of the served graph *)
  edges : int;
  twin_pgf : string;
  expect : string -> (unit, string) result;  (** check of a served-graph response *)
  expect_twin : string -> (unit, string) result;
  twin_violations : int;  (** spec findings on the twin, for the log *)
}

let prepare ~dir ~seed w =
  let s = shape w in
  let graph_pgf = Filename.concat dir "graph.pgf" and twin_pgf = Filename.concat dir "twin.pgf" in
  let make persons recipe path =
    let g = Pg_gen.Social.generate ~seed ~persons () in
    if s.planted then
      let g, titles = plant ~seed recipe g in
      (write_pgf path g, titles)
    else (write_pgf path g, [])
  in
  let twin, _ = make twin_persons twin_recipe twin_pgf in
  let tv = naive_all twin in
  let texp = expectation_of_spec twin tv in
  let expect_twin line =
    if s.planted then Servebench.Checks.check_findings texp line
    else if tv <> [] then Error "the spec engine finds violations on the clean twin"
    else Servebench.Checks.check_clean ~nodes:texp.nodes ~edges:texp.edges line
  in
  let g, titles = make s.persons served_recipe graph_pgf in
  let expect =
    if s.planted then
      let e = planted_expectation g ~mod_titles:titles served_recipe in
      Servebench.Checks.check_findings e
    else begin
      if GP.Naive.strong_extra (Pg_gen.Social.schema ()) g <> [] then
        failwith "the spec engine finds SS violations on the clean graph";
      Servebench.Checks.check_clean ~nodes:(G.node_count g) ~edges:(G.edge_count g)
    end
  in
  {
    graph_pgf;
    nodes = G.node_count g;
    edges = G.edge_count g;
    twin_pgf;
    expect;
    expect_twin;
    twin_violations = List.length tv;
  }
