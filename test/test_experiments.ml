let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_registry_ids_unique () =
  let ids = Vp_experiments.Registry.names in
  Alcotest.(check int) "no duplicates"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_registry_find () =
  let e = Vp_experiments.Registry.find "FIG3" in
  Alcotest.(check string) "case insensitive" "fig3" e.Vp_experiments.Registry.id;
  Alcotest.(check bool) "find_opt unknown" true
    (Vp_experiments.Registry.find_opt "fig99" = None);
  match Vp_experiments.Registry.find "fig99" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "error mentions %s" needle)
            true (contains msg needle))
        [ "fig99"; "valid experiments"; "table1"; "ablations" ]

let test_registry_covers_paper () =
  (* Every table (1-7) and figure (1-14) of the paper is present. *)
  let ids = Vp_experiments.Registry.names in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " present") true (List.mem id ids))
    ([ "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "table7" ]
    @ List.init 14 (fun i -> Printf.sprintf "fig%d" (i + 1)))

let test_static_tables_render () =
  let t1 = Vp_experiments.Exp_classification.table1 () in
  List.iter
    (fun algo -> Alcotest.(check bool) algo true (contains t1 algo))
    [ "AutoPart"; "HillClimb"; "HYRISE"; "Navathe"; "O2P"; "Trojan"; "BruteForce" ];
  let t2 = Vp_experiments.Exp_classification.table2 () in
  Alcotest.(check bool) "unified row" true (contains t2 "Unified setting")

let test_common_algorithm_lineup () =
  let names =
    List.map
      (fun (a : Vp_core.Partitioner.t) -> a.Vp_core.Partitioner.name)
      (Vp_experiments.Common.algorithms Vp_experiments.Common.disk)
  in
  Alcotest.(check (list string))
    "figure order"
    [ "AutoPart"; "HillClimb"; "HYRISE"; "Navathe"; "O2P"; "Trojan"; "BruteForce" ]
    names

let test_tpch_runs_cached_and_complete () =
  let runs = Vp_experiments.Common.tpch_runs () in
  Alcotest.(check int) "9 algorithms (incl. baselines)" 9 (List.length runs);
  List.iter
    (fun (r : Vp_experiments.Common.algo_run) ->
      Alcotest.(check int)
        (r.algo.Vp_core.Partitioner.name ^ " covers 8 tables")
        8
        (List.length r.per_table);
      Alcotest.(check bool)
        (r.algo.Vp_core.Partitioner.name ^ " positive cost")
        true (r.total_cost > 0.0))
    runs;
  (* The cache must make the second call free-ish: physical equality. *)
  Alcotest.(check bool) "cached" true
    (Vp_experiments.Common.tpch_runs () == runs)

let test_paper_headline_results () =
  (* Lesson 1/3: HillClimb finds the BruteForce optimum. *)
  let hc = Vp_experiments.Common.find_run "HillClimb" in
  let bf = Vp_experiments.Common.find_run "BruteForce" in
  Alcotest.(check (Testutil.close ~eps:1e-6 ()))
    "HillClimb = optimal" bf.total_cost hc.total_cost;
  (* Lesson 4: improvement over column exists but is small (< 10%). *)
  let col = Vp_experiments.Common.find_run "Column" in
  let improvement = (col.total_cost -. hc.total_cost) /. col.total_cost in
  Alcotest.(check bool) "positive" true (improvement > 0.0);
  Alcotest.(check bool) "small" true (improvement < 0.10);
  (* Row is several times worse than everything else. *)
  let row = Vp_experiments.Common.find_run "Row" in
  Alcotest.(check bool) "row ~5x worse" true
    (row.total_cost > 3.0 *. col.total_cost);
  (* Navathe and O2P land between Column and Row (the "second class"). *)
  let navathe = Vp_experiments.Common.find_run "Navathe" in
  let o2p = Vp_experiments.Common.find_run "O2P" in
  List.iter
    (fun (r : Vp_experiments.Common.algo_run) ->
      Alcotest.(check bool)
        (r.algo.Vp_core.Partitioner.name ^ " worse than column")
        true
        (r.total_cost > col.total_cost);
      Alcotest.(check bool)
        (r.algo.Vp_core.Partitioner.name ^ " better than row")
        true
        (r.total_cost < row.total_cost))
    [ navathe; o2p ]

(* A cell's rendering against the sweep benchmark's reference digest
   (perfbench/sweep_reference.txt, read, never rewritten here). Table 7
   pins storage and datagen; tables 5 and 6 and the replication extension
   pin Trojan and the bounded BruteForce. *)
let test_matches_reference id () =
  let reference =
    In_channel.with_open_bin "../perfbench/sweep_reference.txt"
      In_channel.input_lines
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ cell; digest ] when cell = id -> Some digest
           | _ -> None)
  in
  let output = (Vp_experiments.Registry.find id).Vp_experiments.Registry.run () in
  Alcotest.(check (option string))
    (id ^ " md5") reference
    (Some (Digest.to_hex (Digest.string output)))

let suite =
  [
    Alcotest.test_case "registry ids unique" `Quick test_registry_ids_unique;
    Alcotest.test_case "registry find" `Quick test_registry_find;
    Alcotest.test_case "registry covers paper" `Quick test_registry_covers_paper;
    Alcotest.test_case "static tables render" `Quick test_static_tables_render;
    Alcotest.test_case "algorithm line-up" `Quick test_common_algorithm_lineup;
    Alcotest.test_case "tpch runs cached" `Slow test_tpch_runs_cached_and_complete;
    Alcotest.test_case "paper headline results" `Slow test_paper_headline_results;
  ]
  @ List.map
      (fun id ->
        Alcotest.test_case (id ^ " matches sweep reference") `Slow
          (test_matches_reference id))
      [ "table7"; "table5"; "table6"; "replication" ]
