open Vp_core

let p_of groups = Partitioning.of_groups ~n:5 (List.map Attr_set.of_list groups)

let test_row_column () =
  Alcotest.(check int) "row groups" 1 (Partitioning.group_count (Partitioning.row 5));
  Alcotest.(check int) "column groups" 5
    (Partitioning.group_count (Partitioning.column 5));
  Alcotest.(check int) "attr count" 5
    (Partitioning.attribute_count (Partitioning.row 5))

let test_canonical_order () =
  let p1 = p_of [ [ 2; 3 ]; [ 0; 4 ]; [ 1 ] ] in
  let p2 = p_of [ [ 1 ]; [ 4; 0 ]; [ 3; 2 ] ] in
  Alcotest.(check Testutil.partitioning) "order irrelevant" p1 p2;
  Alcotest.(check (list Testutil.attr_set))
    "canonical by min element"
    [ Attr_set.of_list [ 0; 4 ]; Attr_set.singleton 1; Attr_set.of_list [ 2; 3 ] ]
    (Partitioning.groups p1)

let test_validation () =
  let bad_overlap () =
    ignore (p_of [ [ 0; 1 ]; [ 1; 2 ]; [ 3; 4 ] ])
  in
  Alcotest.check_raises "overlap"
    (Invalid_argument
       "Partitioning.of_groups: groups must form a disjoint cover of 0..n-1")
    bad_overlap;
  Alcotest.check_raises "missing"
    (Invalid_argument
       "Partitioning.of_groups: groups must form a disjoint cover of 0..n-1")
    (fun () -> ignore (p_of [ [ 0; 1 ] ]));
  Alcotest.check_raises "empty group"
    (Invalid_argument "Partitioning.of_groups: empty group") (fun () ->
      ignore (Partitioning.of_groups ~n:2 [ Attr_set.empty; Attr_set.full 2 ]))

let test_of_assignment () =
  let p = Partitioning.of_assignment [| 7; 7; 3; 7; 3 |] in
  Alcotest.(check Testutil.partitioning)
    "labels arbitrary"
    (p_of [ [ 0; 1; 3 ]; [ 2; 4 ] ])
    p

let test_group_of () =
  let p = p_of [ [ 0; 2 ]; [ 1; 3; 4 ] ] in
  Alcotest.(check Testutil.attr_set)
    "group of 2" (Attr_set.of_list [ 0; 2 ]) (Partitioning.group_of p 2);
  Alcotest.(check int) "index of 4" 1 (Partitioning.group_index_of p 4);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Partitioning.group_of: 9 out of range") (fun () ->
      ignore (Partitioning.group_of p 9))

let test_referenced_groups () =
  let p = p_of [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ] in
  let refs = Attr_set.of_list [ 1; 4 ] in
  Alcotest.(check (list Testutil.attr_set))
    "touched"
    [ Attr_set.of_list [ 0; 1 ]; Attr_set.singleton 4 ]
    (Partitioning.referenced_groups p refs);
  Alcotest.(check int) "count" 2 (Partitioning.referenced_group_count p refs);
  Alcotest.(check int) "none" 0
    (Partitioning.referenced_group_count p Attr_set.empty)

let test_merge () =
  let p = p_of [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ] in
  let merged =
    Partitioning.merge_groups p (Attr_set.of_list [ 0; 1 ]) (Attr_set.singleton 4)
  in
  Alcotest.(check Testutil.partitioning)
    "merged" (p_of [ [ 0; 1; 4 ]; [ 2; 3 ] ]) merged;
  Alcotest.check_raises "same group"
    (Invalid_argument "Partitioning.merge_groups: same group") (fun () ->
      ignore
        (Partitioning.merge_groups p (Attr_set.of_list [ 0; 1 ])
           (Attr_set.of_list [ 0; 1 ])))

let test_split () =
  let p = p_of [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let split =
    Partitioning.split_group p (Attr_set.of_list [ 0; 1; 2 ]) (Attr_set.singleton 1)
  in
  Alcotest.(check Testutil.partitioning)
    "split" (p_of [ [ 0; 2 ]; [ 1 ]; [ 3; 4 ] ]) split;
  Alcotest.check_raises "subset equals group"
    (Invalid_argument "Partitioning.split_group: subset equals the group")
    (fun () ->
      ignore
        (Partitioning.split_group p (Attr_set.of_list [ 3; 4 ])
           (Attr_set.of_list [ 3; 4 ])))

let test_refinement () =
  let fine = Partitioning.column 5 in
  let coarse = p_of [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check bool) "column refines all" true
    (Partitioning.is_refinement fine coarse);
  Alcotest.(check bool) "coarse does not refine column" false
    (Partitioning.is_refinement coarse fine);
  Alcotest.(check bool) "self refinement" true
    (Partitioning.is_refinement coarse coarse)

let test_of_names () =
  let p =
    Partitioning.of_names Testutil.partsupp
      [ [ "PartKey"; "SuppKey" ]; [ "AvailQty"; "SupplyCost" ]; [ "Comment" ] ]
  in
  Alcotest.(check int) "3 groups" 3 (Partitioning.group_count p)

let test_pp_named () =
  let p =
    Partitioning.of_names Testutil.partsupp
      [ [ "PartKey"; "SuppKey" ]; [ "AvailQty"; "SupplyCost"; "Comment" ] ]
  in
  Alcotest.(check string)
    "named rendering"
    "[PartKey,SuppKey | AvailQty,SupplyCost,Comment]"
    (Format.asprintf "%a" (Partitioning.pp_named Testutil.partsupp) p)

(* --- properties --- *)

let prop_random_partitioning_valid =
  QCheck2.Test.make ~name:"random partitionings valid" ~count:300
    QCheck2.Gen.(pair (int_range 1 16) int)
    (fun (n, seed) ->
      let state = Random.State.make [| seed |] in
      let p = Enumeration.random_partitioning (Random.State.int state) n in
      Partitioning.attribute_count p = n
      && List.fold_left
           (fun acc g -> acc + Attr_set.cardinal g)
           0 (Partitioning.groups p)
         = n)

let prop_merge_reduces_group_count =
  QCheck2.Test.make ~name:"merge reduces group count by one" ~count:200
    QCheck2.Gen.(pair (int_range 2 12) int)
    (fun (n, seed) ->
      let state = Random.State.make [| seed |] in
      let p = Enumeration.random_partitioning (Random.State.int state) n in
      match Partitioning.groups p with
      | g1 :: g2 :: _ ->
          Partitioning.group_count (Partitioning.merge_groups p g1 g2)
          = Partitioning.group_count p - 1
      | _ -> QCheck2.assume_fail ())

let prop_column_refines_everything =
  QCheck2.Test.make ~name:"column refines every partitioning" ~count:200
    QCheck2.Gen.(pair (int_range 1 12) int)
    (fun (n, seed) ->
      let state = Random.State.make [| seed |] in
      let p = Enumeration.random_partitioning (Random.State.int state) n in
      Partitioning.is_refinement (Partitioning.column n) p
      && Partitioning.is_refinement p (Partitioning.row n))

(* Reference constructions for [merge_groups] and [split_group]: rebuild
   the group list and let [of_groups] validate and re-sort it. *)
let reference_merge p g1 g2 =
  Partitioning.of_groups ~n:(Partitioning.attribute_count p)
    (Attr_set.union g1 g2
    :: List.filter
         (fun g -> not (Attr_set.equal g g1 || Attr_set.equal g g2))
         (Partitioning.groups p))

let reference_split p g sub =
  Partitioning.of_groups ~n:(Partitioning.attribute_count p)
    (sub :: Attr_set.diff g sub
    :: List.filter (fun h -> not (Attr_set.equal h g)) (Partitioning.groups p))

let raises_invalid msg f =
  match f () with
  | (_ : Partitioning.t) -> false
  | exception Invalid_argument m -> m = msg

let prop_edits_match_reference =
  QCheck2.Test.make ~name:"merge/split = of_groups reference" ~count:300
    QCheck2.Gen.(pair (int_range 1 40) int)
    (fun (n, seed) ->
      let state = Random.State.make [| seed |] in
      let rand = Random.State.int state in
      let p = Enumeration.random_partitioning rand n in
      let groups = Partitioning.group_array p in
      let k = Array.length groups in
      let g = groups.(rand k) in
      (* Never a group: either a proper part of [g] or [g] plus an
         attribute past the end. *)
      let bogus =
        if Attr_set.cardinal g >= 2 then Attr_set.singleton (Attr_set.min_elt g)
        else Attr_set.add n g
      in
      let not_a_group =
        Printf.sprintf "Partitioning: %s is not a group"
          (Attr_set.to_string bogus)
      in
      let merge_ok =
        k < 2
        ||
        let i = rand k in
        let j = (i + 1 + rand (k - 1)) mod k in
        Partitioning.equal
          (Partitioning.merge_groups p groups.(i) groups.(j))
          (reference_merge p groups.(i) groups.(j))
      in
      let split_ok =
        match
          List.filter
            (fun h -> Attr_set.cardinal h >= 2)
            (Array.to_list groups)
        with
        | [] -> true
        | wide ->
            let h = List.nth wide (rand (List.length wide)) in
            let attrs = Attr_set.to_list h in
            let drop = List.nth attrs (rand (List.length attrs)) in
            let sub =
              Attr_set.filter (fun a -> a <> drop && rand 2 = 0) h
            in
            let sub =
              if Attr_set.is_empty sub then Attr_set.singleton drop else sub
            in
            Partitioning.equal
              (Partitioning.split_group p h sub)
              (reference_split p h sub)
      in
      merge_ok && split_ok
      && raises_invalid not_a_group (fun () ->
             Partitioning.merge_groups p bogus g)
      && raises_invalid not_a_group (fun () ->
             Partitioning.merge_groups p g bogus)
      && raises_invalid "Partitioning.merge_groups: same group" (fun () ->
             Partitioning.merge_groups p g g)
      && raises_invalid not_a_group (fun () ->
             Partitioning.split_group p bogus bogus)
      && raises_invalid "Partitioning.split_group: empty subset" (fun () ->
             Partitioning.split_group p g Attr_set.empty)
      && raises_invalid "Partitioning.split_group: subset equals the group"
           (fun () -> Partitioning.split_group p g g))

let suite =
  [
    Alcotest.test_case "row/column" `Quick test_row_column;
    Alcotest.test_case "canonical order" `Quick test_canonical_order;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "of_assignment" `Quick test_of_assignment;
    Alcotest.test_case "group_of" `Quick test_group_of;
    Alcotest.test_case "referenced groups" `Quick test_referenced_groups;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "split" `Quick test_split;
    Alcotest.test_case "refinement" `Quick test_refinement;
    Alcotest.test_case "of_names" `Quick test_of_names;
    Alcotest.test_case "pp_named" `Quick test_pp_named;
    Testutil.qtest prop_random_partitioning_valid;
    Testutil.qtest prop_merge_reduces_group_count;
    Testutil.qtest prop_column_refines_everything;
    Testutil.qtest prop_edits_match_reference;
  ]
