(* Golden layout tests: freeze the layouts the deterministic algorithms
   compute for TPC-H under the default setting (the content of the paper's
   Figure 14). Any change to an algorithm, the cost model or the workload
   encoding that alters a layout shows up here. *)

open Vp_core

let disk = Vp_cost.Disk.default

let layout_of algo_name table_name =
  let w = Vp_benchmarks.Tpch.workload ~sf:10.0 table_name in
  let a = Vp_algorithms.Registry.find algo_name in
  let oracle = Vp_cost.Io_model.oracle disk w in
  (Workload.table w, (Partitioner.exec a (Partitioner.Request.make ~cost:oracle w)).Partitioner.Response.partitioning)

let check_layout algo_name table_name expected_groups =
  let table, got = layout_of algo_name table_name in
  let expected = Partitioning.of_names table expected_groups in
  Alcotest.(check Testutil.partitioning)
    (Printf.sprintf "%s on %s" algo_name table_name)
    expected got

let test_hillclimb_customer () =
  check_layout "HillClimb" "customer"
    [
      [ "CustKey" ]; [ "Name" ]; [ "Address"; "Comment" ]; [ "NationKey" ];
      [ "Phone"; "AcctBal" ]; [ "MktSegment" ];
    ]

let test_hillclimb_partsupp () =
  check_layout "HillClimb" "partsupp"
    [ [ "PartKey"; "SuppKey" ]; [ "AvailQty" ]; [ "SupplyCost" ]; [ "Comment" ] ]

let test_hillclimb_orders_all_singletons () =
  let _, got = layout_of "HillClimb" "orders" in
  Alcotest.(check int) "9 singleton groups" 9 (Partitioning.group_count got)

let test_hillclimb_lineitem () =
  check_layout "HillClimb" "lineitem"
    [
      [ "OrderKey" ]; [ "PartKey" ]; [ "SuppKey" ]; [ "LineNumber" ];
      [ "Quantity" ]; [ "ExtendedPrice"; "Discount" ]; [ "Tax"; "LineStatus" ];
      [ "ReturnFlag" ]; [ "ShipDate" ]; [ "CommitDate"; "ReceiptDate" ];
      [ "ShipInstruct" ]; [ "ShipMode" ]; [ "Comment" ];
    ]

let test_autopart_lineitem_groups_unreferenced () =
  (* The paper's Appendix B detail: AutoPart groups the two unreferenced
     attributes, HillClimb leaves them apart; otherwise identical. *)
  check_layout "AutoPart" "lineitem"
    [
      [ "OrderKey" ]; [ "PartKey" ]; [ "SuppKey" ];
      [ "LineNumber"; "Comment" ]; [ "Quantity" ];
      [ "ExtendedPrice"; "Discount" ]; [ "Tax"; "LineStatus" ];
      [ "ReturnFlag" ]; [ "ShipDate" ]; [ "CommitDate"; "ReceiptDate" ];
      [ "ShipInstruct" ]; [ "ShipMode" ];
    ]

let test_autopart_supplier () =
  check_layout "AutoPart" "supplier"
    [
      [ "SuppKey"; "NationKey" ]; [ "Name" ]; [ "Address" ];
      [ "Phone"; "AcctBal" ]; [ "Comment" ];
    ]

let test_nation_region () =
  check_layout "HillClimb" "region" [ [ "RegionKey"; "Name" ]; [ "Comment" ] ];
  check_layout "HillClimb" "nation"
    [ [ "NationKey"; "Name"; "RegionKey" ]; [ "Comment" ] ]

let test_hillclimb_class_agrees () =
  (* AutoPart, HYRISE, BruteForce and HillClimb must have identical costs
     on every table (the paper's "HillClimb class"). *)
  List.iter
    (fun table_name ->
      let w = Vp_benchmarks.Tpch.workload ~sf:10.0 table_name in
      let oracle = Vp_cost.Io_model.oracle disk w in
      let cost name =
        (Partitioner.exec
           (Vp_algorithms.Registry.find name)
           (Partitioner.Request.make ~cost:oracle w))
          .Partitioner.Response.cost
      in
      let hc = cost "HillClimb" in
      List.iter
        (fun name ->
          Alcotest.(check (Testutil.close ~eps:1e-6 ()))
            (Printf.sprintf "%s = HillClimb on %s" name table_name)
            hc (cost name))
        [ "AutoPart"; "HYRISE" ])
    Vp_benchmarks.Tpch.table_names

(* Navathe/O2P must stay in the "second class": different layouts than
   HillClimb on the big tables. *)
let test_second_class_differs () =
  List.iter
    (fun table_name ->
      let _, hc = layout_of "HillClimb" table_name in
      let _, navathe = layout_of "Navathe" table_name in
      Alcotest.(check bool)
        (Printf.sprintf "Navathe differs on %s" table_name)
        false
        (Partitioning.equal hc navathe))
    [ "customer"; "lineitem"; "orders"; "partsupp"; "supplier" ]

(* SSB sanity: every algorithm yields valid partitionings there too. *)
let test_ssb_validity () =
  List.iter
    (fun w ->
      let oracle = Vp_cost.Io_model.oracle disk w in
      List.iter
        (fun (a : Partitioner.t) ->
          let r = Partitioner.exec a (Partitioner.Request.make ~cost:oracle w) in
          Alcotest.(check bool)
            (Printf.sprintf "%s on ssb %s" a.Partitioner.name
               (Table.name (Workload.table w)))
            true
            (Testutil.valid_partitioning_of_workload r.Partitioner.Response.partitioning
               w))
        (Vp_algorithms.Registry.six @ Vp_algorithms.Registry.baselines))
    (Vp_benchmarks.Ssb.workloads ~sf:10.0)

(* Regression bands for the headline aggregates, so drift in any component
   that moves the reproduced results is caught immediately. *)
let test_reproduction_bands () =
  let total name = (Vp_experiments.Common.find_run name).total_cost in
  let band name lo hi =
    let v = total name in
    Alcotest.(check bool)
      (Printf.sprintf "%s in [%g, %g] (got %g)" name lo hi v)
      true (v >= lo && v <= hi)
  in
  band "HillClimb" 380.0 440.0;
  band "BruteForce" 380.0 440.0;
  band "Column" 395.0 445.0;
  band "Row" 1900.0 2200.0;
  band "Navathe" 450.0 700.0;
  band "O2P" 450.0 700.0;
  band "Trojan" 380.0 460.0;
  let entries name =
    Vp_experiments.Common.entries_of (Vp_experiments.Common.find_run name)
  in
  let unnecessary name =
    Vp_metrics.Measures.Aggregate.unnecessary_data_read disk (entries name)
  in
  Alcotest.(check bool) "HC waste < 5%" true (unnecessary "HillClimb" < 0.05);
  Alcotest.(check bool) "Navathe waste 15-45%" true
    (unnecessary "Navathe" > 0.15 && unnecessary "Navathe" < 0.45);
  Alcotest.(check bool) "Row waste ~83%" true
    (unnecessary "Row" > 0.75 && unnecessary "Row" < 0.90)

(* --- observability golden ---

   The Chrome trace exporter is a wire format: chrome://tracing and
   Perfetto parse it, so its exact shape is frozen against a checked-in
   golden file. The fixture uses fixed ids and timestamps, which makes
   the output deterministic without any normalization pass. Regenerate
   after an intentional format change with

     cd test && VP_UPDATE_GOLDEN=1 ../_build/default/test/test_main.exe test golden *)

let update_goldens = Sys.getenv_opt "VP_UPDATE_GOLDEN" = Some "1"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name path actual =
  if update_goldens then begin
    let oc = open_out_bin path in
    output_string oc actual;
    close_out oc
  end
  else Alcotest.(check string) name (read_file path) actual

let golden_events =
  [
    {
      Vp_observe.Trace.id = 1; parent = -1; name = "experiment"; domain = 0;
      start_ns = 1_000L; dur_ns = 5_000_000L; args = [];
    };
    {
      Vp_observe.Trace.id = 2; parent = 1; name = "algo:HillClimb"; domain = 0;
      start_ns = 501_000L; dur_ns = 2_250_000L; args = [ ("table", "partsupp") ];
    };
    {
      Vp_observe.Trace.id = 3; parent = 2; name = "pool:cell"; domain = 1;
      start_ns = 1_001_000L; dur_ns = 400_000L; args = [];
    };
  ]

let test_chrome_trace_golden () =
  let actual =
    Vp_observe.Json.to_string ~pretty:true
      (Vp_observe.Trace.to_chrome golden_events)
    ^ "\n"
  in
  check_golden "chrome trace export" "golden/trace_chrome.golden.json" actual

let suite =
  [
    Alcotest.test_case "HillClimb customer" `Quick test_hillclimb_customer;
    Alcotest.test_case "HillClimb partsupp" `Quick test_hillclimb_partsupp;
    Alcotest.test_case "HillClimb orders" `Quick
      test_hillclimb_orders_all_singletons;
    Alcotest.test_case "HillClimb lineitem" `Quick test_hillclimb_lineitem;
    Alcotest.test_case "AutoPart lineitem" `Quick
      test_autopart_lineitem_groups_unreferenced;
    Alcotest.test_case "AutoPart supplier" `Quick test_autopart_supplier;
    Alcotest.test_case "nation/region" `Quick test_nation_region;
    Alcotest.test_case "HillClimb class agrees" `Quick test_hillclimb_class_agrees;
    Alcotest.test_case "second class differs" `Quick test_second_class_differs;
    Alcotest.test_case "SSB validity" `Quick test_ssb_validity;
    Alcotest.test_case "reproduction bands" `Slow test_reproduction_bands;
    Alcotest.test_case "chrome trace export" `Quick test_chrome_trace_golden;
  ]
