open Vp_core

(* --- Attribute --- *)

let test_widths () =
  Alcotest.(check int) "int32" 4 (Attribute.width (Attribute.make "k" Attribute.Int32));
  Alcotest.(check int) "decimal" 8 (Attribute.width (Attribute.make "d" Attribute.Decimal));
  Alcotest.(check int) "date" 4 (Attribute.width (Attribute.make "t" Attribute.Date));
  Alcotest.(check int) "char" 25 (Attribute.width (Attribute.make "c" (Attribute.Char 25)));
  Alcotest.(check int) "varchar" 199 (Attribute.width (Attribute.make "v" (Attribute.Varchar 199)))

let test_attribute_validation () =
  Alcotest.check_raises "empty name" (Invalid_argument "Attribute.make: empty name")
    (fun () -> ignore (Attribute.make "" Attribute.Int32));
  Alcotest.check_raises "zero width char"
    (Invalid_argument "Attribute.make: non-positive width 0 for c") (fun () ->
      ignore (Attribute.make "c" (Attribute.Char 0)))

(* --- Table --- *)

let test_table_basics () =
  let t = Testutil.partsupp in
  Alcotest.(check int) "attrs" 5 (Table.attribute_count t);
  Alcotest.(check int) "rows" 8_000_000 (Table.row_count t);
  Alcotest.(check int) "row size" (4 + 4 + 4 + 8 + 199) (Table.row_size t);
  Alcotest.(check int) "position" 3 (Table.position t "SupplyCost");
  Alcotest.(check string) "attr name" "Comment" (Attribute.name (Table.attribute t 4))

let test_table_subset_size () =
  let t = Testutil.partsupp in
  Alcotest.(check int) "PartKey+SuppKey" 8
    (Table.subset_size t (Attr_set.of_list [ 0; 1 ]));
  Alcotest.(check int) "empty subset" 0 (Table.subset_size t Attr_set.empty);
  Alcotest.(check int) "all" (Table.row_size t)
    (Table.subset_size t (Table.all_attributes t));
  let out_of_bounds =
    Invalid_argument "Table.subset_size: attribute position out of bounds"
  in
  (* partsupp has 5 attributes: position 5 is the first one past the end. *)
  Alcotest.check_raises "position = attribute count" out_of_bounds (fun () ->
      ignore (Table.subset_size t (Attr_set.of_list [ 0; 5 ])));
  Alcotest.check_raises "far position" out_of_bounds (fun () ->
      ignore (Table.subset_size t (Attr_set.singleton 40)))

let test_table_validation () =
  let a = Attribute.make "x" Attribute.Int32 in
  Alcotest.check_raises "empty attributes"
    (Invalid_argument "Table.make: empty attribute list") (fun () ->
      ignore (Table.make ~name:"t" ~attributes:[] ~row_count:1));
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Table.make: duplicate attribute \"x\"") (fun () ->
      ignore (Table.make ~name:"t" ~attributes:[ a; a ] ~row_count:1));
  Alcotest.check_raises "negative rows"
    (Invalid_argument "Table.make: negative row count") (fun () ->
      ignore (Table.make ~name:"t" ~attributes:[ a ] ~row_count:(-1)))

let test_with_row_count () =
  let t = Table.with_row_count Testutil.tiny 42 in
  Alcotest.(check int) "updated" 42 (Table.row_count t);
  Alcotest.(check int) "schema kept" 3 (Table.attribute_count t)

let test_attr_set_of_names () =
  let t = Testutil.partsupp in
  Alcotest.(check Testutil.attr_set)
    "resolve"
    (Attr_set.of_list [ 0; 4 ])
    (Table.attr_set_of_names t [ "PartKey"; "Comment" ]);
  Alcotest.(check (list string))
    "names back" [ "PartKey"; "Comment" ]
    (Table.names_of_attr_set t (Attr_set.of_list [ 0; 4 ]));
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Table.attr_set_of_names t [ "Nope" ]))

(* --- Query --- *)

let test_query () =
  let q = Query.make ~name:"q" ~references:(Attr_set.of_list [ 1; 2 ]) () in
  Alcotest.(check bool) "refs 1" true (Query.references_attr q 1);
  Alcotest.(check bool) "not refs 0" false (Query.references_attr q 0);
  Alcotest.(check (float 0.0)) "default weight" 1.0 (Query.weight q)

let test_query_validation () =
  Alcotest.check_raises "empty refs"
    (Invalid_argument "Query.make: q references no attribute") (fun () ->
      ignore (Query.make ~name:"q" ~references:Attr_set.empty ()));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Query.make: q has non-positive weight") (fun () ->
      ignore
        (Query.make ~weight:0.0 ~name:"q"
           ~references:(Attr_set.singleton 0) ()))

(* --- Workload --- *)

let test_workload_basics () =
  let w = Testutil.partsupp_workload in
  Alcotest.(check int) "2 queries" 2 (Workload.query_count w);
  Alcotest.(check Testutil.attr_set)
    "referenced" (Attr_set.full 5) (Workload.referenced_attributes w);
  Alcotest.(check Testutil.attr_set)
    "unreferenced" Attr_set.empty (Workload.unreferenced_attributes w)

let test_workload_out_of_range () =
  let q = Query.make ~name:"q" ~references:(Attr_set.singleton 10) () in
  Alcotest.check_raises "out of range"
    (Invalid_argument
       "Workload.make: query q references attributes outside table tiny")
    (fun () -> ignore (Workload.make Testutil.tiny [ q ]))

let test_workload_prefix () =
  let w = Testutil.partsupp_workload in
  Alcotest.(check int) "prefix 1" 1 (Workload.query_count (Workload.prefix w 1));
  Alcotest.(check int) "prefix 0" 0 (Workload.query_count (Workload.prefix w 0));
  Alcotest.(check int) "prefix clamp" 2 (Workload.query_count (Workload.prefix w 99))

let test_co_access () =
  let w = Testutil.partsupp_workload in
  (* AvailQty(2) and SupplyCost(3) co-occur in both queries. *)
  Alcotest.(check (float 0.0)) "co 2 3" 2.0 (Workload.co_access_count w 2 3);
  (* PartKey(0) and Comment(4) never co-occur. *)
  Alcotest.(check (float 0.0)) "co 0 4" 0.0 (Workload.co_access_count w 0 4);
  (* Diagonal = access count. *)
  Alcotest.(check (float 0.0)) "diag 0" 1.0 (Workload.co_access_count w 0 0)

let test_access_signature () =
  let w = Testutil.partsupp_workload in
  Alcotest.(check Testutil.attr_set)
    "PartKey in q0 only" (Attr_set.singleton 0) (Workload.access_signature w 0);
  Alcotest.(check Testutil.attr_set)
    "AvailQty in both" (Attr_set.of_list [ 0; 1 ])
    (Workload.access_signature w 2)

let test_primary_partitions () =
  let w = Testutil.partsupp_workload in
  let pp = Workload.primary_partitions w in
  (* Expected: {PartKey,SuppKey} (q1 only), {AvailQty,SupplyCost} (both),
     {Comment} (q2 only). *)
  Alcotest.(check int) "3 atoms" 3 (List.length pp);
  Alcotest.(check (list Testutil.attr_set))
    "atoms"
    [ Attr_set.of_list [ 0; 1 ]; Attr_set.of_list [ 2; 3 ]; Attr_set.singleton 4 ]
    pp

let test_primary_partitions_unreferenced_grouped () =
  let table = Testutil.tiny in
  let q = Query.make ~name:"q" ~references:(Attr_set.singleton 0) () in
  let w = Workload.make table [ q ] in
  let pp = Workload.primary_partitions w in
  Alcotest.(check (list Testutil.attr_set))
    "unreferenced together"
    [ Attr_set.singleton 0; Attr_set.of_list [ 1; 2 ] ]
    pp

let test_scale_weights () =
  let w = Workload.scale_weights Testutil.partsupp_workload 3.0 in
  Alcotest.(check (float 0.0)) "scaled" 3.0 (Query.weight (Workload.query w 0))

let test_affinity_matrix () =
  let m = Affinity.of_workload Testutil.partsupp_workload in
  Alcotest.(check (float 0.0)) "aff(2,3)" 2.0 (Affinity.get m 2 3);
  Alcotest.(check (float 0.0)) "aff(0,4)" 0.0 (Affinity.get m 0 4);
  Alcotest.(check (float 0.0)) "symmetric" (Affinity.get m 1 2) (Affinity.get m 2 1);
  (* Incremental build equals batch build. *)
  let m' = Affinity.create 5 in
  Affinity.add_query m' Testutil.partsupp_q1;
  Affinity.add_query m' Testutil.partsupp_q2;
  Alcotest.(check bool) "incremental = batch" true (Affinity.equal m m')

(* Properties: primary partitions always form a valid partitioning. *)
let prop_primary_partitions_cover =
  QCheck2.Test.make ~name:"primary partitions form a partition" ~count:100
    (Testutil.gen_workload 8 6)
    (fun w ->
      let pp = Workload.primary_partitions w in
      let p = Partitioning.of_groups ~n:8 pp in
      Partitioning.attribute_count p = 8)

let prop_co_access_symmetric =
  QCheck2.Test.make ~name:"co-access symmetric" ~count:100
    QCheck2.Gen.(triple (Testutil.gen_workload 6 5) (int_range 0 5) (int_range 0 5))
    (fun (w, i, j) ->
      Workload.co_access_count w i j = Workload.co_access_count w j i)

let suite =
  [
    Alcotest.test_case "attribute widths" `Quick test_widths;
    Alcotest.test_case "attribute validation" `Quick test_attribute_validation;
    Alcotest.test_case "table basics" `Quick test_table_basics;
    Alcotest.test_case "table subset size" `Quick test_table_subset_size;
    Alcotest.test_case "table validation" `Quick test_table_validation;
    Alcotest.test_case "with_row_count" `Quick test_with_row_count;
    Alcotest.test_case "attr_set_of_names" `Quick test_attr_set_of_names;
    Alcotest.test_case "query" `Quick test_query;
    Alcotest.test_case "query validation" `Quick test_query_validation;
    Alcotest.test_case "workload basics" `Quick test_workload_basics;
    Alcotest.test_case "workload out of range" `Quick test_workload_out_of_range;
    Alcotest.test_case "workload prefix" `Quick test_workload_prefix;
    Alcotest.test_case "co-access counts" `Quick test_co_access;
    Alcotest.test_case "access signatures" `Quick test_access_signature;
    Alcotest.test_case "primary partitions" `Quick test_primary_partitions;
    Alcotest.test_case "unreferenced grouped" `Quick
      test_primary_partitions_unreferenced_grouped;
    Alcotest.test_case "scale weights" `Quick test_scale_weights;
    Alcotest.test_case "affinity matrix" `Quick test_affinity_matrix;
    Testutil.qtest prop_primary_partitions_cover;
    Testutil.qtest prop_co_access_symmetric;
  ]
