(* Independent checks of one validate response line.

   A response is judged by its envelope fields and by the graph element
   ids its diagnostics name, never by message text: a later report form
   that groups a key collision into one diagnostic naming all members
   passes the same checks as today's one-diagnostic-per-pair form. *)

module Json = Graphql_pg.Json

type diag = { code : string; ids : string list }

type response = {
  status : string;
  exit : int;
  nodes : int;
  edges : int;
  complete : bool;
  violations : int;
  diags : diag list;
}

(* Element ids in a subject: the words "n<digits>" and "e<digits>", as in
   "nodes n3 and n7" or "property \"x\" of edge e12". *)
let subject_ids subject =
  let is_id w =
    String.length w >= 2
    && (w.[0] = 'n' || w.[0] = 'e')
    && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub w 1 (String.length w - 1))
  in
  String.split_on_char ' ' subject
  |> List.map (fun w -> if String.ends_with ~suffix:"," w then String.sub w 0 (String.length w - 1) else w)
  |> List.filter is_id
  |> List.sort_uniq String.compare

let pairs k = k * (k - 1) / 2

let ( let* ) = Result.bind

let field name conv j =
  match conv (Json.member name j) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "response field %S missing or mistyped" name)

let to_int = function Json.Int i -> Some i | _ -> None
let to_bool = function Json.Bool b -> Some b | _ -> None
let to_string = function Json.String s -> Some s | _ -> None
let to_list = function Json.List l -> Some l | _ -> None

let parse line =
  let* j = Json.of_string line in
  let* status = field "status" to_string j in
  let* exit = field "exit" to_int j in
  let summary = Json.member "summary" j in
  let* nodes = field "nodes" to_int summary in
  let* edges = field "edges" to_int summary in
  let* complete = field "complete" to_bool summary in
  let* violations = field "violations" to_int summary in
  let* diags = field "diagnostics" to_list j in
  let* diags =
    List.fold_right
      (fun d acc ->
        let* acc = acc in
        let* code = field "code" to_string d in
        let ids = match Json.member "subject" d with Json.String s -> subject_ids s | _ -> [] in
        Ok ({ code; ids } :: acc))
      diags (Ok [])
  in
  Ok { status; exit; nodes; edges; complete; violations; diags }

let check_shape ~nodes ~edges r =
  if r.nodes <> nodes then Error (Printf.sprintf "nodes: %d, expected %d" r.nodes nodes)
  else if r.edges <> edges then Error (Printf.sprintf "edges: %d, expected %d" r.edges edges)
  else if not r.complete then Error "report is not complete"
  else Ok ()

let check_clean ~nodes ~edges line =
  let* r = parse line in
  let* () = check_shape ~nodes ~edges r in
  if r.status <> "ok" then Error (Printf.sprintf "status %S, expected \"ok\"" r.status)
  else if r.exit <> 0 then Error (Printf.sprintf "exit %d, expected 0" r.exit)
  else if r.violations <> 0 || r.diags <> [] then
    Error (Printf.sprintf "%d violation(s) on a conforming graph" (List.length r.diags))
  else Ok ()

type expectation = {
  nodes : int;
  edges : int;
  groups : (string * string list list) list;
  others : (string * string list) list;
}

module SS = Set.Make (struct
  type t = string * string

  let compare = compare
end)

(* All diagnostics of [code] must together name exactly the planted
   groups' members, each diagnostic within one group, and cover every
   within-group pair exactly once: Σ C(k,2) pairs for groups of sizes k. *)
let check_groups code groups diags =
  let mine = List.filter (fun d -> d.code = code) diags in
  let group_of = Hashtbl.create 64 in
  List.iteri (fun gi g -> List.iter (fun id -> Hashtbl.replace group_of id gi) g) groups;
  let expected = List.fold_left (fun n g -> n + pairs (List.length g)) 0 groups in
  let* covered =
    List.fold_left
      (fun acc d ->
        let* acc = acc in
        match d.ids with
        | [] | [ _ ] -> Error (Printf.sprintf "%s diagnostic names fewer than two elements" code)
        | first :: _ -> (
          match Hashtbl.find_opt group_of first with
          | None -> Error (Printf.sprintf "%s names %s, which is in no planted group" code first)
          | Some gi ->
            if List.exists (fun id -> Hashtbl.find_opt group_of id <> Some gi) d.ids then
              Error (Printf.sprintf "%s diagnostic spans two planted groups" code)
            else
              let rec add acc = function
                | [] -> Ok acc
                | a :: rest ->
                  let* acc =
                    List.fold_left
                      (fun acc b ->
                        let* acc = acc in
                        if SS.mem (a, b) acc then
                          Error (Printf.sprintf "%s pair %s/%s reported twice" code a b)
                        else Ok (SS.add (a, b) acc))
                      (Ok acc) rest
                  in
                  add acc rest
              in
              add acc d.ids))
      (Ok SS.empty) mine
  in
  if SS.cardinal covered <> expected then
    Error
      (Printf.sprintf "%s accounts for %d pair(s), expected %d" code (SS.cardinal covered)
         expected)
  else Ok ()

let sort_multiset l = List.sort compare l

let check_findings (e : expectation) line =
  let* r = parse line in
  let* () = check_shape ~nodes:e.nodes ~edges:e.edges r in
  let* () =
    if r.status <> "findings" || r.exit <> 1 then
      Error (Printf.sprintf "status %S exit %d, expected \"findings\" exit 1" r.status r.exit)
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc (code, groups) ->
        let* () = acc in
        check_groups code groups r.diags)
      (Ok ()) e.groups
  in
  let grouped code = List.mem_assoc code e.groups in
  let got =
    sort_multiset
      (List.filter_map
         (fun d -> if grouped d.code then None else Some (d.code, d.ids))
         r.diags)
  in
  let want = sort_multiset (List.map (fun (c, ids) -> (c, List.sort_uniq compare ids)) e.others) in
  if got = want then Ok ()
  else
    let missing = List.filter (fun x -> not (List.mem x got)) want in
    let extra = List.filter (fun x -> not (List.mem x want)) got in
    let show = function
      | (c, ids) :: _ -> Printf.sprintf "%s %s" c (String.concat "," ids)
      | [] -> "-"
    in
    Error
      (Printf.sprintf "other rules: %d missing (first: %s), %d unexpected (first: %s)"
         (List.length missing) (show missing) (List.length extra) (show extra))

(* The groups a pairwise rule's pair list implies: connected components
   of the pairs.  Key equality and "same target" are equivalences, so a
   spec engine's pairs for one rule are cliques over these components. *)
let groups_of_pairs pairs =
  let parent = Hashtbl.create 64 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when p <> x ->
      let r = find p in
      Hashtbl.replace parent x r;
      r
    | _ -> x
  in
  List.iter
    (fun (a, b) ->
      List.iter (fun x -> if not (Hashtbl.mem parent x) then Hashtbl.replace parent x x) [ a; b ];
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent ra rb)
    pairs;
  let by_root = Hashtbl.create 16 in
  Hashtbl.iter
    (fun x _ ->
      let r = find x in
      Hashtbl.replace by_root r (x :: Option.value ~default:[] (Hashtbl.find_opt by_root r)))
    parent;
  Hashtbl.fold (fun _ members acc -> List.sort compare members :: acc) by_root []
  |> List.sort compare
