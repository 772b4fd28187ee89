(* The benchmark's own pure parts: the percentile rule, the Σ C(k,2)
   oracle, the /proc parsers, and the response checks. *)

open Servebench

let ok = Alcotest.(result unit string)
let is_error = function Error _ -> true | Ok () -> false

let percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Stats.percentile 50. xs);
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Stats.percentile 90. xs);
  Alcotest.(check (float 0.)) "p100 is the max" 100. (Stats.percentile 100. xs);
  Alcotest.(check (float 0.)) "median of 3" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "nearest rank takes the lower middle" 1. (Stats.median [| 2.; 1. |]);
  Alcotest.(check (float 0.)) "single sample" 7. (Stats.percentile 90. [| 7. |]);
  Alcotest.(check int) "p90 needs 100 samples" 100 (Stats.min_samples_for 90.);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: no samples") (fun () ->
    ignore (Stats.median [||]))

let stat_line =
  "4242 (gpgs serve (x)) S 1 4242 4242 0 -1 4194560 1500 0 0 0 1234 567 0 0 20 0 6 0 100 \
   200000000 9000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"

let status_text = "Name:\tgpgs\nVmPeak:\t  200000 kB\nVmHWM:\t   38123 kB\nVmRSS:\t   30000 kB\n"

let procfs () =
  Alcotest.(check (result (float 1e-9) string))
    "utime+stime over USER_HZ, comm with spaces and parens" (Ok 18.01)
    (Procfs.cpu_seconds_of_stat stat_line);
  Alcotest.(check bool) "truncated stat" true
    (Result.is_error (Procfs.cpu_seconds_of_stat "4242 (gpgs) S 1 2 3"));
  Alcotest.(check (result int string)) "VmHWM" (Ok 38123) (Procfs.vmhwm_kb_of_status status_text);
  Alcotest.(check bool) "no VmHWM" true
    (Result.is_error (Procfs.vmhwm_kb_of_status "Name:\tgpgs\nVmRSS:\t 1 kB\n"))

let pairs_oracle () =
  Alcotest.(check int) "C(32,2)" 496 (Checks.pairs 32);
  Alcotest.(check int) "32 groups of 32" 15_872
    (List.fold_left ( + ) 0 (List.init 32 (fun _ -> Checks.pairs 32)));
  Alcotest.(check int) "a lone member yields none" 0 (Checks.pairs 1);
  Alcotest.(check (list (list string)))
    "components of a pair list"
    [ [ "n1"; "n2"; "n3" ]; [ "n7"; "n8" ] ]
    (Checks.groups_of_pairs [ ("n1", "n2"); ("n8", "n7"); ("n2", "n3"); ("n1", "n3") ])

let subjects () =
  Alcotest.(check (list string)) "pair" [ "n100"; "n101" ] (Checks.subject_ids "nodes n100 and n101");
  Alcotest.(check (list string)) "property" [ "e12" ]
    (Checks.subject_ids "property \"n5\" of edge e12");
  Alcotest.(check (list string)) "grouped form" [ "n1"; "n2"; "n3" ]
    (Checks.subject_ids "nodes n1, n2 and n3")

(* Responses in the envelope form the server writes. *)
let envelope ?(status = "findings") ?(exit = 1) ?(nodes = 10) ?(edges = 20) diags =
  let d (code, subject) =
    Printf.sprintf
      {|{"code":"%s","severity":"error","span":null,"subject":"%s","message":"m","related":[]}|}
      code
      (String.concat "\\\"" (String.split_on_char '"' subject))
  in
  Printf.sprintf
    {|{"tool":"gpgs","command":"validate","status":"%s","exit":%d,"counts":{"errors":%d,"warnings":0,"infos":0},"summary":{"engine":"indexed","mode":"strong","nodes":%d,"edges":%d,"complete":true,"nodes_scanned":%d,"edges_scanned":%d,"violations":%d},"diagnostics":[%s]}|}
    status exit (List.length diags) nodes edges nodes edges (List.length diags)
    (String.concat "," (List.map d diags))

let clean () =
  let good = envelope ~status:"ok" ~exit:0 [] in
  Alcotest.check ok "clean response" (Ok ()) (Checks.check_clean ~nodes:10 ~edges:20 good);
  Alcotest.(check bool) "wrong node count" true
    (is_error (Checks.check_clean ~nodes:11 ~edges:20 good));
  Alcotest.(check bool) "a violation on a clean graph" true
    (is_error
       (Checks.check_clean ~nodes:10 ~edges:20
          (envelope ~status:"ok" ~exit:0 [ ("SS2", "property \"x\" of node n3") ])));
  Alcotest.(check bool) "tampered status" true
    (is_error (Checks.check_clean ~nodes:10 ~edges:20 (envelope ~status:"findings" ~exit:0 [])));
  Alcotest.(check bool) "not JSON" true
    (is_error (Checks.check_clean ~nodes:10 ~edges:20 (String.sub good 0 40)))

let expectation : Checks.expectation =
  {
    nodes = 10;
    edges = 20;
    groups = [ ("DS7", [ [ "n1"; "n2"; "n3" ]; [ "n5"; "n6" ] ]) ];
    others = [ ("SS2", [ "n4" ]); ("SS4", [ "e9" ]) ];
  }

let planted_pairs =
  [
    ("DS7", "nodes n1 and n2");
    ("DS7", "nodes n1 and n3");
    ("DS7", "nodes n2 and n3");
    ("DS7", "nodes n5 and n6");
    ("SS2", "property \"p\" of node n4");
    ("SS4", "edge e9");
  ]

let findings () =
  Alcotest.check ok "pair form" (Ok ()) (Checks.check_findings expectation (envelope planted_pairs));
  Alcotest.check ok "grouped form passes the same check" (Ok ())
    (Checks.check_findings expectation
       (envelope
          [
            ("DS7", "nodes n1, n2 and n3");
            ("DS7", "nodes n5 and n6");
            ("SS4", "edge e9");
            ("SS2", "property \"p\" of node n4");
          ]));
  let drop i = List.filteri (fun j _ -> j <> i) planted_pairs in
  Alcotest.(check bool) "a dropped colliding node" true
    (is_error (Checks.check_findings expectation (envelope (drop 3))));
  Alcotest.(check bool) "a pair reported twice" true
    (is_error
       (Checks.check_findings expectation (envelope (("DS7", "nodes n1 and n2") :: planted_pairs))));
  Alcotest.(check bool) "a pair across two groups" true
    (is_error
       (Checks.check_findings expectation (envelope (("DS7", "nodes n3 and n5") :: drop 3))));
  Alcotest.(check bool) "a wrong node count" true
    (is_error (Checks.check_findings expectation (envelope ~nodes:9 planted_pairs)));
  Alcotest.(check bool) "another rule names another element" true
    (is_error
       (Checks.check_findings expectation
          (envelope (List.map (fun (c, s) -> if c = "SS4" then (c, "edge e8") else (c, s)) planted_pairs))));
  Alcotest.(check bool) "a tampered exit code" true
    (is_error (Checks.check_findings expectation (envelope ~exit:0 planted_pairs)))

let () =
  Alcotest.run "servebench"
    [
      ( "servebench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile;
          Alcotest.test_case "proc parsers" `Quick procfs;
          Alcotest.test_case "pairs oracle" `Quick pairs_oracle;
          Alcotest.test_case "subject ids" `Quick subjects;
          Alcotest.test_case "clean response checks" `Quick clean;
          Alcotest.test_case "findings response checks" `Quick findings;
        ] );
    ]
