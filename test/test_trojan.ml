(* Trojan's observable behaviour, pinned bit for bit: layouts, cost bits,
   candidate and cost-call counts, iterations, and the step at which
   budgeted and cancelled runs stop. Sharing the group scores across the
   threshold passes is a pure speed-up, so none of these may move from
   what a scorer that re-scores every group on every pass produces. *)

open Vp_core
module Budget = Vp_robust.Budget

let disk = Vp_experiments.Common.disk

let sf = Vp_experiments.Common.sf

(* One line per (table, configuration): layout, cost bits, candidates,
   cost calls, iterations and the step a budgeted or cancelled run
   stopped at. *)
let observe ~table (name, (algo : Partitioner.t), request) =
  let r = Partitioner.exec algo request in
  let s = r.Partitioner.Response.stats in
  Printf.sprintf "%s %s %s %Lx cands=%d calls=%d iters=%d %s" table name
    (Partitioning.to_string r.partitioning)
    (Int64.bits_of_float r.cost)
    s.Partitioner.candidates s.cost_calls s.iterations
    (match r.status with
    | Partitioner.Complete -> "complete"
    | Timed_out { steps; _ } -> Printf.sprintf "timed_out@%d" steps)

let budgets = [ 1; 1_000; 20_000; 65_535; 65_536; 300_000 ]

let configurations w =
  let oracle = Vp_cost.Io_model.oracle disk w in
  let request ?budget ?cancel () =
    Partitioner.Request.make ?budget ?cancel ~cost:oracle w
  in
  let steps k = Budget.create ~max_steps:k () in
  let t = Vp_algorithms.Trojan.algorithm in
  [ ("t", t, request ()) ]
  @ List.map
      (fun k -> (Printf.sprintf "t/%d" k, t, request ~budget:(steps k) ()))
      budgets
  @ [ ("t/cancelled", t, request ~cancel:(Atomic.make true) ()) ]
  @ List.map
      (fun th ->
        ( Printf.sprintf "t=%.1f" th,
          Vp_algorithms.Trojan.with_threshold th,
          request () ))
      [ 0.1; 0.3; 0.5 ]
  @ List.map
      (fun k ->
        ( Printf.sprintf "t=0.3/%d" k,
          Vp_algorithms.Trojan.with_threshold 0.3,
          request ~budget:(steps k) () ))
      [ 1; 1_000; 65_535; 65_536 ]

(* Seeded random workloads whose weighted, irregular access patterns give
   non-trivial NMI values. On these seeds, summing a group's pairs in
   another order changes the chosen layout. *)
let random_workload seed =
  let st = Random.State.make [| seed |] in
  let n = 6 + Random.State.int st 7 in
  let attributes =
    List.init n (fun i ->
        Attribute.make (Printf.sprintf "c%d" i)
          (if i mod 2 = 0 then Attribute.Int32 else Attribute.Char (3 + i)))
  in
  let table =
    Table.make ~name:(Printf.sprintf "r%d" seed) ~attributes
      ~row_count:1_000_000
  in
  let queries =
    List.init
      (3 + Random.State.int st 10)
      (fun i ->
        let mask = 1 + Random.State.int st ((1 lsl n) - 1) in
        Query.make
          ~weight:(0.5 +. Random.State.float st 4.0)
          ~name:(Printf.sprintf "q%d" i) ~references:(Attr_set.of_mask mask) ())
  in
  Workload.make table queries

let observations () =
  List.concat_map
    (fun (bench, workloads) ->
      List.concat_map
        (fun w ->
          let table = bench ^ "/" ^ Table.name (Workload.table w) in
          List.map (observe ~table) (configurations w))
        workloads)
    [
      ("tpch", Vp_benchmarks.Tpch.workloads ~sf);
      ("ssb", Vp_benchmarks.Ssb.workloads ~sf);
      ("random", List.map random_workload [ 14; 140; 152 ]);
    ]

(* Recorded from a scorer that re-scores every group on every pass. *)
let expected =
  [
    "tpch/customer t [{0}|{1}|{2,7}|{3}|{4,5}|{6}] 40185f664680faa5 cands=1240 calls=5 iters=5 complete";
    "tpch/customer t/1 [{0,1,2,3,4,5,6,7}] 403e801d6a2b9d22 cands=1 calls=1 iters=5 timed_out@2";
    "tpch/customer t/1000 [{0}|{1}|{2,7}|{3}|{4,5}|{6}] 40185f664680faa5 cands=969 calls=4 iters=5 timed_out@1001";
    "tpch/customer t/20000 [{0}|{1}|{2,7}|{3}|{4,5}|{6}] 40185f664680faa5 cands=1241 calls=6 iters=5 complete";
    "tpch/customer t/65535 [{0}|{1}|{2,7}|{3}|{4,5}|{6}] 40185f664680faa5 cands=1241 calls=6 iters=5 complete";
    "tpch/customer t/65536 [{0}|{1}|{2,7}|{3}|{4,5}|{6}] 40185f664680faa5 cands=1241 calls=6 iters=5 complete";
    "tpch/customer t/300000 [{0}|{1}|{2,7}|{3}|{4,5}|{6}] 40185f664680faa5 cands=1241 calls=6 iters=5 complete";
    "tpch/customer t/cancelled [{0,1,2,3,4,5,6,7}] 403e801d6a2b9d22 cands=1 calls=1 iters=5 timed_out@0";
    "tpch/customer t=0.1 [{0}|{1,2,3,4,5,7}|{6}] 4036fbb6e46d0f1c cands=247 calls=0 iters=1 complete";
    "tpch/customer t=0.3 [{0}|{1,2,3,4,5,7}|{6}] 4036fbb6e46d0f1c cands=247 calls=0 iters=1 complete";
    "tpch/customer t=0.5 [{0}|{1,2,4,5,7}|{3}|{6}] 4028b258d58613be cands=247 calls=0 iters=1 complete";
    "tpch/customer t=0.3/1 [{0,1,2,3,4,5,6,7}] 403e801d6a2b9d22 cands=1 calls=1 iters=0 timed_out@2";
    "tpch/customer t=0.3/1000 [{0}|{1,2,3,4,5,7}|{6}] 4036fbb6e46d0f1c cands=249 calls=2 iters=1 complete";
    "tpch/customer t=0.3/65535 [{0}|{1,2,3,4,5,7}|{6}] 4036fbb6e46d0f1c cands=249 calls=2 iters=1 complete";
    "tpch/customer t=0.3/65536 [{0}|{1,2,3,4,5,7}|{6}] 4036fbb6e46d0f1c cands=249 calls=2 iters=1 complete";
    "tpch/lineitem t [{0}|{1}|{2}|{3,15}|{4}|{5,6}|{7,8,9}|{10}|{11,12}|{13}|{14}] 4075feb0834fa3cf cands=327600 calls=5 iters=5 complete";
    "tpch/lineitem t/1 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}] 4099225162b579be cands=1 calls=1 iters=5 timed_out@2";
    "tpch/lineitem t/1000 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}] 4099225162b579be cands=991 calls=1 iters=5 timed_out@1001";
    "tpch/lineitem t/20000 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}] 4099225162b579be cands=19986 calls=1 iters=5 timed_out@20001";
    "tpch/lineitem t/65535 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}] 4099225162b579be cands=65520 calls=1 iters=5 timed_out@65536";
    "tpch/lineitem t/65536 [{0}|{1}|{2}|{3,15}|{4}|{5}|{6}|{7,9}|{8}|{10}|{11,12}|{13}|{14}] 4076079daa6257aa cands=65521 calls=2 iters=5 timed_out@65537";
    "tpch/lineitem t/300000 [{0}|{1}|{2}|{3,15}|{4}|{5,6}|{7,8,9}|{10}|{11,12}|{13}|{14}] 4075feb0834fa3cf cands=299921 calls=5 iters=5 timed_out@300001";
    "tpch/lineitem t/cancelled [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}] 4099225162b579be cands=1 calls=1 iters=5 timed_out@0";
    "tpch/lineitem t=0.1 [{0,1,2,3,11,12,13,14,15}|{4,5,6,7,8,9,10}] 409743724e138135 cands=65519 calls=0 iters=1 complete";
    "tpch/lineitem t=0.3 [{0,11,12}|{1,13,14}|{2}|{3,15}|{4,7,8,9,10}|{5,6}] 4084f5b603113132 cands=65519 calls=0 iters=1 complete";
    "tpch/lineitem t=0.5 [{0}|{1}|{2}|{3,15}|{4}|{5,6}|{7,8,9}|{10}|{11,12}|{13,14}] 407710ff874ef36b cands=65519 calls=0 iters=1 complete";
    "tpch/lineitem t=0.3/1 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}] 4099225162b579be cands=1 calls=1 iters=0 timed_out@2";
    "tpch/lineitem t=0.3/1000 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}] 4099225162b579be cands=991 calls=1 iters=0 timed_out@1001";
    "tpch/lineitem t=0.3/65535 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}] 4099225162b579be cands=65520 calls=1 iters=1 timed_out@65536";
    "tpch/lineitem t=0.3/65536 [{0,11,12}|{1,13,14}|{2}|{3,15}|{4,7,8,9,10}|{5,6}] 4084f5b603113132 cands=65521 calls=2 iters=1 complete";
    "tpch/nation t [{0,1}|{2}|{3}] 3fae4516c79b8ded cands=60 calls=5 iters=5 complete";
    "tpch/nation t/1 [{0,1,2,3}] 3fa6b3d115b4aa72 cands=1 calls=1 iters=5 timed_out@2";
    "tpch/nation t/1000 [{0,1,2,3}] 3fa6b3d115b4aa72 cands=61 calls=6 iters=5 complete";
    "tpch/nation t/20000 [{0,1,2,3}] 3fa6b3d115b4aa72 cands=61 calls=6 iters=5 complete";
    "tpch/nation t/65535 [{0,1,2,3}] 3fa6b3d115b4aa72 cands=61 calls=6 iters=5 complete";
    "tpch/nation t/65536 [{0,1,2,3}] 3fa6b3d115b4aa72 cands=61 calls=6 iters=5 complete";
    "tpch/nation t/300000 [{0,1,2,3}] 3fa6b3d115b4aa72 cands=61 calls=6 iters=5 complete";
    "tpch/nation t/cancelled [{0,1,2,3}] 3fa6b3d115b4aa72 cands=1 calls=1 iters=5 timed_out@0";
    "tpch/nation t=0.1 [{0,1}|{2}|{3}] 3fae4516c79b8ded cands=11 calls=0 iters=1 complete";
    "tpch/nation t=0.3 [{0,1}|{2}|{3}] 3fae4516c79b8ded cands=11 calls=0 iters=1 complete";
    "tpch/nation t=0.5 [{0,1}|{2}|{3}] 3fae4516c79b8ded cands=11 calls=0 iters=1 complete";
    "tpch/nation t=0.3/1 [{0,1,2,3}] 3fa6b3d115b4aa72 cands=1 calls=1 iters=0 timed_out@2";
    "tpch/nation t=0.3/1000 [{0,1,2,3}] 3fa6b3d115b4aa72 cands=13 calls=2 iters=1 complete";
    "tpch/nation t=0.3/65535 [{0,1,2,3}] 3fa6b3d115b4aa72 cands=13 calls=2 iters=1 complete";
    "tpch/nation t=0.3/65536 [{0,1,2,3}] 3fa6b3d115b4aa72 cands=13 calls=2 iters=1 complete";
    "tpch/orders t [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}] 4044eaaf244cab7a cands=2515 calls=5 iters=5 complete";
    "tpch/orders t/1 [{0,1,2,3,4,5,6,7,8}] 4070df235453c00d cands=1 calls=1 iters=5 timed_out@2";
    "tpch/orders t/1000 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}] 4044eaaf244cab7a cands=983 calls=2 iters=5 timed_out@1001";
    "tpch/orders t/20000 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}] 4044eaaf244cab7a cands=2516 calls=6 iters=5 complete";
    "tpch/orders t/65535 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}] 4044eaaf244cab7a cands=2516 calls=6 iters=5 complete";
    "tpch/orders t/65536 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}] 4044eaaf244cab7a cands=2516 calls=6 iters=5 complete";
    "tpch/orders t/300000 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}] 4044eaaf244cab7a cands=2516 calls=6 iters=5 complete";
    "tpch/orders t/cancelled [{0,1,2,3,4,5,6,7,8}] 4070df235453c00d cands=1 calls=1 iters=5 timed_out@0";
    "tpch/orders t=0.1 [{0,3,4,7}|{1,8}|{2}|{5}|{6}] 4064272738dcad66 cands=502 calls=0 iters=1 complete";
    "tpch/orders t=0.3 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}] 4044eaaf244cab7a cands=502 calls=0 iters=1 complete";
    "tpch/orders t=0.5 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}] 4044eaaf244cab7a cands=502 calls=0 iters=1 complete";
    "tpch/orders t=0.3/1 [{0,1,2,3,4,5,6,7,8}] 4070df235453c00d cands=1 calls=1 iters=0 timed_out@2";
    "tpch/orders t=0.3/1000 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}] 4044eaaf244cab7a cands=504 calls=2 iters=1 complete";
    "tpch/orders t=0.3/65535 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}] 4044eaaf244cab7a cands=504 calls=2 iters=1 complete";
    "tpch/orders t=0.3/65536 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7}|{8}] 4044eaaf244cab7a cands=504 calls=2 iters=1 complete";
    "tpch/part t [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7,8}] 40203e32dd290224 cands=2515 calls=5 iters=5 complete";
    "tpch/part t/1 [{0,1,2,3,4,5,6,7,8}] 403ddf357b1b08f1 cands=1 calls=1 iters=5 timed_out@2";
    "tpch/part t/1000 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7,8}] 40203e32dd290224 cands=983 calls=2 iters=5 timed_out@1001";
    "tpch/part t/20000 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7,8}] 40203e32dd290224 cands=2516 calls=6 iters=5 complete";
    "tpch/part t/65535 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7,8}] 40203e32dd290224 cands=2516 calls=6 iters=5 complete";
    "tpch/part t/65536 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7,8}] 40203e32dd290224 cands=2516 calls=6 iters=5 complete";
    "tpch/part t/300000 [{0}|{1}|{2}|{3}|{4}|{5}|{6}|{7,8}] 40203e32dd290224 cands=2516 calls=6 iters=5 complete";
    "tpch/part t/cancelled [{0,1,2,3,4,5,6,7,8}] 403ddf357b1b08f1 cands=1 calls=1 iters=5 timed_out@0";
    "tpch/part t=0.1 [{0}|{1}|{2,3,4,5,6}|{7,8}] 402bc1def31b15a9 cands=502 calls=0 iters=1 complete";
    "tpch/part t=0.3 [{0}|{1}|{2,5}|{3,6}|{4}|{7,8}] 40230365fb7bf00c cands=502 calls=0 iters=1 complete";
    "tpch/part t=0.5 [{0}|{1}|{2}|{3,6}|{4}|{5}|{7,8}] 40209ed5a8588c51 cands=502 calls=0 iters=1 complete";
    "tpch/part t=0.3/1 [{0,1,2,3,4,5,6,7,8}] 403ddf357b1b08f1 cands=1 calls=1 iters=0 timed_out@2";
    "tpch/part t=0.3/1000 [{0}|{1}|{2,5}|{3,6}|{4}|{7,8}] 40230365fb7bf00c cands=504 calls=2 iters=1 complete";
    "tpch/part t=0.3/65535 [{0}|{1}|{2,5}|{3,6}|{4}|{7,8}] 40230365fb7bf00c cands=504 calls=2 iters=1 complete";
    "tpch/part t=0.3/65536 [{0}|{1}|{2,5}|{3,6}|{4}|{7,8}] 40230365fb7bf00c cands=504 calls=2 iters=1 complete";
    "tpch/partsupp t [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=135 calls=5 iters=5 complete";
    "tpch/partsupp t/1 [{0,1,2,3,4}] 4058b9b4a5b1b2f6 cands=1 calls=1 iters=5 timed_out@2";
    "tpch/partsupp t/1000 [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=136 calls=6 iters=5 complete";
    "tpch/partsupp t/20000 [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=136 calls=6 iters=5 complete";
    "tpch/partsupp t/65535 [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=136 calls=6 iters=5 complete";
    "tpch/partsupp t/65536 [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=136 calls=6 iters=5 complete";
    "tpch/partsupp t/300000 [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=136 calls=6 iters=5 complete";
    "tpch/partsupp t/cancelled [{0,1,2,3,4}] 4058b9b4a5b1b2f6 cands=1 calls=1 iters=5 timed_out@0";
    "tpch/partsupp t=0.1 [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=26 calls=0 iters=1 complete";
    "tpch/partsupp t=0.3 [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=26 calls=0 iters=1 complete";
    "tpch/partsupp t=0.5 [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=26 calls=0 iters=1 complete";
    "tpch/partsupp t=0.3/1 [{0,1,2,3,4}] 4058b9b4a5b1b2f6 cands=1 calls=1 iters=0 timed_out@2";
    "tpch/partsupp t=0.3/1000 [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=28 calls=2 iters=1 complete";
    "tpch/partsupp t=0.3/65535 [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=28 calls=2 iters=1 complete";
    "tpch/partsupp t=0.3/65536 [{0,1}|{2}|{3}|{4}] 401b6acac9689daa cands=28 calls=2 iters=1 complete";
    "tpch/region t [{0,1}|{2}] 3f8e4516c79b8dee cands=25 calls=5 iters=5 complete";
    "tpch/region t/1 [{0,1,2}] 3f8e4516c79b8dee cands=1 calls=1 iters=5 timed_out@2";
    "tpch/region t/1000 [{0,1,2}] 3f8e4516c79b8dee cands=26 calls=6 iters=5 complete";
    "tpch/region t/20000 [{0,1,2}] 3f8e4516c79b8dee cands=26 calls=6 iters=5 complete";
    "tpch/region t/65535 [{0,1,2}] 3f8e4516c79b8dee cands=26 calls=6 iters=5 complete";
    "tpch/region t/65536 [{0,1,2}] 3f8e4516c79b8dee cands=26 calls=6 iters=5 complete";
    "tpch/region t/300000 [{0,1,2}] 3f8e4516c79b8dee cands=26 calls=6 iters=5 complete";
    "tpch/region t/cancelled [{0,1,2}] 3f8e4516c79b8dee cands=1 calls=1 iters=5 timed_out@0";
    "tpch/region t=0.1 [{0,1}|{2}] 3f8e4516c79b8dee cands=4 calls=0 iters=1 complete";
    "tpch/region t=0.3 [{0,1}|{2}] 3f8e4516c79b8dee cands=4 calls=0 iters=1 complete";
    "tpch/region t=0.5 [{0,1}|{2}] 3f8e4516c79b8dee cands=4 calls=0 iters=1 complete";
    "tpch/region t=0.3/1 [{0,1,2}] 3f8e4516c79b8dee cands=1 calls=1 iters=0 timed_out@2";
    "tpch/region t=0.3/1000 [{0,1,2}] 3f8e4516c79b8dee cands=6 calls=2 iters=1 complete";
    "tpch/region t=0.3/65535 [{0,1,2}] 3f8e4516c79b8dee cands=6 calls=2 iters=1 complete";
    "tpch/region t=0.3/65536 [{0,1,2}] 3f8e4516c79b8dee cands=6 calls=2 iters=1 complete";
    "tpch/supplier t [{0}|{1}|{2}|{3}|{4}|{5}|{6}] 3fe9d3c098c8b026 cands=605 calls=5 iters=5 complete";
    "tpch/supplier t/1 [{0,1,2,3,4,5,6}] 400217c6b3407741 cands=1 calls=1 iters=5 timed_out@2";
    "tpch/supplier t/1000 [{0}|{1}|{2}|{3}|{4}|{5}|{6}] 3fe9d3c098c8b026 cands=606 calls=6 iters=5 complete";
    "tpch/supplier t/20000 [{0}|{1}|{2}|{3}|{4}|{5}|{6}] 3fe9d3c098c8b026 cands=606 calls=6 iters=5 complete";
    "tpch/supplier t/65535 [{0}|{1}|{2}|{3}|{4}|{5}|{6}] 3fe9d3c098c8b026 cands=606 calls=6 iters=5 complete";
    "tpch/supplier t/65536 [{0}|{1}|{2}|{3}|{4}|{5}|{6}] 3fe9d3c098c8b026 cands=606 calls=6 iters=5 complete";
    "tpch/supplier t/300000 [{0}|{1}|{2}|{3}|{4}|{5}|{6}] 3fe9d3c098c8b026 cands=606 calls=6 iters=5 complete";
    "tpch/supplier t/cancelled [{0,1,2,3,4,5,6}] 400217c6b3407741 cands=1 calls=1 iters=5 timed_out@0";
    "tpch/supplier t=0.1 [{0}|{1,2,3,4,5,6}] 40032f61be62b0b6 cands=120 calls=0 iters=1 complete";
    "tpch/supplier t=0.3 [{0}|{1,2,4,5,6}|{3}] 3ff528a93aad07f5 cands=120 calls=0 iters=1 complete";
    "tpch/supplier t=0.5 [{0}|{1,2,4}|{3}|{5,6}] 3feb3ffbd06f0d1a cands=120 calls=0 iters=1 complete";
    "tpch/supplier t=0.3/1 [{0,1,2,3,4,5,6}] 400217c6b3407741 cands=1 calls=1 iters=0 timed_out@2";
    "tpch/supplier t=0.3/1000 [{0}|{1,2,4,5,6}|{3}] 3ff528a93aad07f5 cands=122 calls=2 iters=1 complete";
    "tpch/supplier t=0.3/65535 [{0}|{1,2,4,5,6}|{3}] 3ff528a93aad07f5 cands=122 calls=2 iters=1 complete";
    "tpch/supplier t=0.3/65536 [{0}|{1,2,4,5,6}|{3}] 3ff528a93aad07f5 cands=122 calls=2 iters=1 complete";
    "ssb/customer t [{0}|{1,2,6,7}|{3}|{4}|{5}] 3fe3676007bdd2e3 cands=1240 calls=5 iters=5 complete";
    "ssb/customer t/1 [{0,1,2,3,4,5,6,7}] 40062c7992469eb4 cands=1 calls=1 iters=5 timed_out@2";
    "ssb/customer t/1000 [{0}|{1,2,6,7}|{3}|{4}|{5}] 3fe3676007bdd2e3 cands=969 calls=4 iters=5 timed_out@1001";
    "ssb/customer t/20000 [{0}|{1,2,6,7}|{3}|{4}|{5}] 3fe3676007bdd2e3 cands=1241 calls=6 iters=5 complete";
    "ssb/customer t/65535 [{0}|{1,2,6,7}|{3}|{4}|{5}] 3fe3676007bdd2e3 cands=1241 calls=6 iters=5 complete";
    "ssb/customer t/65536 [{0}|{1,2,6,7}|{3}|{4}|{5}] 3fe3676007bdd2e3 cands=1241 calls=6 iters=5 complete";
    "ssb/customer t/300000 [{0}|{1,2,6,7}|{3}|{4}|{5}] 3fe3676007bdd2e3 cands=1241 calls=6 iters=5 complete";
    "ssb/customer t/cancelled [{0,1,2,3,4,5,6,7}] 40062c7992469eb4 cands=1 calls=1 iters=5 timed_out@0";
    "ssb/customer t=0.1 [{0}|{1,2,4,5,6,7}|{3}] 400076a4b95081e0 cands=247 calls=0 iters=1 complete";
    "ssb/customer t=0.3 [{0}|{1,2,4,5,6,7}|{3}] 400076a4b95081e0 cands=247 calls=0 iters=1 complete";
    "ssb/customer t=0.5 [{0}|{1,2,6,7}|{3}|{4}|{5}] 3fe3676007bdd2e3 cands=247 calls=0 iters=1 complete";
    "ssb/customer t=0.3/1 [{0,1,2,3,4,5,6,7}] 40062c7992469eb4 cands=1 calls=1 iters=0 timed_out@2";
    "ssb/customer t=0.3/1000 [{0}|{1,2,4,5,6,7}|{3}] 400076a4b95081e0 cands=249 calls=2 iters=1 complete";
    "ssb/customer t=0.3/65535 [{0}|{1,2,4,5,6,7}|{3}] 400076a4b95081e0 cands=249 calls=2 iters=1 complete";
    "ssb/customer t=0.3/65536 [{0}|{1,2,4,5,6,7}|{3}] 400076a4b95081e0 cands=249 calls=2 iters=1 complete";
    "ssb/date t [{0}|{1,2,3,7,8,9,10,12,13,14,15,16}|{4}|{5}|{6}|{11}] 3fc15671f212cdea cands=655275 calls=5 iters=5 complete";
    "ssb/date t/1 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 3fb87a91c56f8588 cands=1 calls=1 iters=5 timed_out@2";
    "ssb/date t/1000 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 3fb87a91c56f8588 cands=991 calls=1 iters=5 timed_out@1001";
    "ssb/date t/20000 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 3fb87a91c56f8588 cands=19986 calls=1 iters=5 timed_out@20001";
    "ssb/date t/65535 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 3fb87a91c56f8588 cands=65520 calls=1 iters=5 timed_out@65536";
    "ssb/date t/65536 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 3fb87a91c56f8588 cands=65520 calls=1 iters=5 timed_out@65537";
    "ssb/date t/300000 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 3fb87a91c56f8588 cands=299951 calls=3 iters=5 timed_out@300001";
    "ssb/date t/cancelled [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 3fb87a91c56f8588 cands=1 calls=1 iters=5 timed_out@0";
    "ssb/date t=0.1 [{0}|{1,2,3,4,7,8,9,10,11,12,13,14,15,16}|{5}|{6}] 3fc361fbedbd0ec7 cands=131054 calls=0 iters=1 complete";
    "ssb/date t=0.3 [{0}|{1,2,3,4,7,8,9,10,11,12,13,14,15,16}|{5}|{6}] 3fc361fbedbd0ec7 cands=131054 calls=0 iters=1 complete";
    "ssb/date t=0.5 [{0}|{1,2,3,4,7,8,9,10,11,12,13,14,15,16}|{5}|{6}] 3fc361fbedbd0ec7 cands=131054 calls=0 iters=1 complete";
    "ssb/date t=0.3/1 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 3fb87a91c56f8588 cands=1 calls=1 iters=0 timed_out@2";
    "ssb/date t=0.3/1000 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 3fb87a91c56f8588 cands=991 calls=1 iters=0 timed_out@1001";
    "ssb/date t=0.3/65535 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 3fb87a91c56f8588 cands=65520 calls=1 iters=0 timed_out@65536";
    "ssb/date t=0.3/65536 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 3fb87a91c56f8588 cands=65520 calls=1 iters=0 timed_out@65537";
    "ssb/lineorder t [{0,1,6,7,10,14,15,16}|{2}|{3}|{4,12}|{5}|{8,9,11}|{13}] 4065df78ac369047 cands=655275 calls=5 iters=5 complete";
    "ssb/lineorder t/1 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 4086851ef58a43d6 cands=1 calls=1 iters=5 timed_out@2";
    "ssb/lineorder t/1000 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 4086851ef58a43d6 cands=991 calls=1 iters=5 timed_out@1001";
    "ssb/lineorder t/20000 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 4086851ef58a43d6 cands=19986 calls=1 iters=5 timed_out@20001";
    "ssb/lineorder t/65535 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 4086851ef58a43d6 cands=65520 calls=1 iters=5 timed_out@65536";
    "ssb/lineorder t/65536 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 4086851ef58a43d6 cands=65520 calls=1 iters=5 timed_out@65537";
    "ssb/lineorder t/300000 [{0,1,6,7,10,14,15,16}|{2}|{3}|{4,12}|{5}|{8,9,11}|{13}] 4065df78ac369047 cands=299951 calls=3 iters=5 timed_out@300001";
    "ssb/lineorder t/cancelled [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 4086851ef58a43d6 cands=1 calls=1 iters=5 timed_out@0";
    "ssb/lineorder t=0.1 [{0,1,2,3,4,6,7,8,9,10,11,12,13,14,15,16}|{5}] 40877f7cd6afa1c9 cands=131054 calls=0 iters=1 complete";
    "ssb/lineorder t=0.3 [{0,1,2,3,4,6,7,8,9,10,11,12,14,15,16}|{5}|{13}] 40870140feecc7f8 cands=131054 calls=0 iters=1 complete";
    "ssb/lineorder t=0.5 [{0,1,3,6,7,10,13,14,15,16}|{2,4,12}|{5}|{8,9,11}] 40786c2a4c8ba6c2 cands=131054 calls=0 iters=1 complete";
    "ssb/lineorder t=0.3/1 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 4086851ef58a43d6 cands=1 calls=1 iters=0 timed_out@2";
    "ssb/lineorder t=0.3/1000 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 4086851ef58a43d6 cands=991 calls=1 iters=0 timed_out@1001";
    "ssb/lineorder t=0.3/65535 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 4086851ef58a43d6 cands=65520 calls=1 iters=0 timed_out@65536";
    "ssb/lineorder t=0.3/65536 [{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16}] 4086851ef58a43d6 cands=65520 calls=1 iters=0 timed_out@65537";
    "ssb/part t [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=2515 calls=5 iters=5 complete";
    "ssb/part t/1 [{0,1,2,3,4,5,6,7,8}] 40153a2c9f69bc2d cands=1 calls=1 iters=5 timed_out@2";
    "ssb/part t/1000 [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=983 calls=2 iters=5 timed_out@1001";
    "ssb/part t/20000 [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=2516 calls=6 iters=5 complete";
    "ssb/part t/65535 [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=2516 calls=6 iters=5 complete";
    "ssb/part t/65536 [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=2516 calls=6 iters=5 complete";
    "ssb/part t/300000 [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=2516 calls=6 iters=5 complete";
    "ssb/part t/cancelled [{0,1,2,3,4,5,6,7,8}] 40153a2c9f69bc2d cands=1 calls=1 iters=5 timed_out@0";
    "ssb/part t=0.1 [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=502 calls=0 iters=1 complete";
    "ssb/part t=0.3 [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=502 calls=0 iters=1 complete";
    "ssb/part t=0.5 [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=502 calls=0 iters=1 complete";
    "ssb/part t=0.3/1 [{0,1,2,3,4,5,6,7,8}] 40153a2c9f69bc2d cands=1 calls=1 iters=0 timed_out@2";
    "ssb/part t=0.3/1000 [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=504 calls=2 iters=1 complete";
    "ssb/part t=0.3/65535 [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=504 calls=2 iters=1 complete";
    "ssb/part t=0.3/65536 [{0}|{1,5,6,7,8}|{2}|{3}|{4}] 3fed9293ca7fad33 cands=504 calls=2 iters=1 complete";
    "ssb/supplier t [{0}|{1,2,6}|{3}|{4}|{5}] 3fc4bb07c4194456 cands=605 calls=5 iters=5 complete";
    "ssb/supplier t/1 [{0,1,2,3,4,5,6}] 3fd187e3ba70647a cands=1 calls=1 iters=5 timed_out@2";
    "ssb/supplier t/1000 [{0}|{1,2,6}|{3}|{4}|{5}] 3fc4bb07c4194456 cands=606 calls=6 iters=5 complete";
    "ssb/supplier t/20000 [{0}|{1,2,6}|{3}|{4}|{5}] 3fc4bb07c4194456 cands=606 calls=6 iters=5 complete";
    "ssb/supplier t/65535 [{0}|{1,2,6}|{3}|{4}|{5}] 3fc4bb07c4194456 cands=606 calls=6 iters=5 complete";
    "ssb/supplier t/65536 [{0}|{1,2,6}|{3}|{4}|{5}] 3fc4bb07c4194456 cands=606 calls=6 iters=5 complete";
    "ssb/supplier t/300000 [{0}|{1,2,6}|{3}|{4}|{5}] 3fc4bb07c4194456 cands=606 calls=6 iters=5 complete";
    "ssb/supplier t/cancelled [{0,1,2,3,4,5,6}] 3fd187e3ba70647a cands=1 calls=1 iters=5 timed_out@0";
    "ssb/supplier t=0.1 [{0}|{1,2,3,4,6}|{5}] 3fcf64b5f3a5efad cands=120 calls=0 iters=1 complete";
    "ssb/supplier t=0.3 [{0}|{1,2,3,4,6}|{5}] 3fcf64b5f3a5efad cands=120 calls=0 iters=1 complete";
    "ssb/supplier t=0.5 [{0}|{1,2,6}|{3}|{4}|{5}] 3fc4bb07c4194456 cands=120 calls=0 iters=1 complete";
    "ssb/supplier t=0.3/1 [{0,1,2,3,4,5,6}] 3fd187e3ba70647a cands=1 calls=1 iters=0 timed_out@2";
    "ssb/supplier t=0.3/1000 [{0}|{1,2,3,4,6}|{5}] 3fcf64b5f3a5efad cands=122 calls=2 iters=1 complete";
    "ssb/supplier t=0.3/65535 [{0}|{1,2,3,4,6}|{5}] 3fcf64b5f3a5efad cands=122 calls=2 iters=1 complete";
    "ssb/supplier t=0.3/65536 [{0}|{1,2,3,4,6}|{5}] 3fcf64b5f3a5efad cands=122 calls=2 iters=1 complete";
    "random/r14 t [{0,1,6}|{2,4,5}|{3,8}|{7}] 40088ed94d6f88ec cands=2515 calls=5 iters=5 complete";
    "random/r14 t/1 [{0,1,2,3,4,5,6,7,8}] 4012d6662b63e1cd cands=1 calls=1 iters=5 timed_out@2";
    "random/r14 t/1000 [{0,1,6}|{2,4,5}|{3,8}|{7}] 40088ed94d6f88ec cands=983 calls=2 iters=5 timed_out@1001";
    "random/r14 t/20000 [{0,1,6}|{2,4,5}|{3,8}|{7}] 40088ed94d6f88ec cands=2516 calls=6 iters=5 complete";
    "random/r14 t/65535 [{0,1,6}|{2,4,5}|{3,8}|{7}] 40088ed94d6f88ec cands=2516 calls=6 iters=5 complete";
    "random/r14 t/65536 [{0,1,6}|{2,4,5}|{3,8}|{7}] 40088ed94d6f88ec cands=2516 calls=6 iters=5 complete";
    "random/r14 t/300000 [{0,1,6}|{2,4,5}|{3,8}|{7}] 40088ed94d6f88ec cands=2516 calls=6 iters=5 complete";
    "random/r14 t/cancelled [{0,1,2,3,4,5,6,7,8}] 4012d6662b63e1cd cands=1 calls=1 iters=5 timed_out@0";
    "random/r14 t=0.1 [{0,1,2,3,4,5,6,7,8}] 4012d6662b63e1cd cands=502 calls=0 iters=1 complete";
    "random/r14 t=0.3 [{0,1,6}|{2,4,5}|{3,7,8}] 400b77fa88add527 cands=502 calls=0 iters=1 complete";
    "random/r14 t=0.5 [{0,1,6}|{2,4,5}|{3,8}|{7}] 40088ed94d6f88ec cands=502 calls=0 iters=1 complete";
    "random/r14 t=0.3/1 [{0,1,2,3,4,5,6,7,8}] 4012d6662b63e1cd cands=1 calls=1 iters=0 timed_out@2";
    "random/r14 t=0.3/1000 [{0,1,6}|{2,4,5}|{3,7,8}] 400b77fa88add527 cands=504 calls=2 iters=1 complete";
    "random/r14 t=0.3/65535 [{0,1,6}|{2,4,5}|{3,7,8}] 400b77fa88add527 cands=504 calls=2 iters=1 complete";
    "random/r14 t=0.3/65536 [{0,1,6}|{2,4,5}|{3,7,8}] 400b77fa88add527 cands=504 calls=2 iters=1 complete";
    "random/r140 t [{0,1}|{2,3}|{4}|{5}] 3fe814ccddfbeebe cands=290 calls=5 iters=5 complete";
    "random/r140 t/1 [{0,1,2,3,4,5}] 3ff02aeabad0b482 cands=1 calls=1 iters=5 timed_out@2";
    "random/r140 t/1000 [{0,1}|{2,3}|{4}|{5}] 3fe814ccddfbeebe cands=291 calls=6 iters=5 complete";
    "random/r140 t/20000 [{0,1}|{2,3}|{4}|{5}] 3fe814ccddfbeebe cands=291 calls=6 iters=5 complete";
    "random/r140 t/65535 [{0,1}|{2,3}|{4}|{5}] 3fe814ccddfbeebe cands=291 calls=6 iters=5 complete";
    "random/r140 t/65536 [{0,1}|{2,3}|{4}|{5}] 3fe814ccddfbeebe cands=291 calls=6 iters=5 complete";
    "random/r140 t/300000 [{0,1}|{2,3}|{4}|{5}] 3fe814ccddfbeebe cands=291 calls=6 iters=5 complete";
    "random/r140 t/cancelled [{0,1,2,3,4,5}] 3ff02aeabad0b482 cands=1 calls=1 iters=5 timed_out@0";
    "random/r140 t=0.1 [{0,1,2,3,4}|{5}] 3feffdac0baa0b3d cands=57 calls=0 iters=1 complete";
    "random/r140 t=0.3 [{0,1}|{2,3,4}|{5}] 3fe901cf1caf6ce8 cands=57 calls=0 iters=1 complete";
    "random/r140 t=0.5 [{0,1}|{2,3,4}|{5}] 3fe901cf1caf6ce8 cands=57 calls=0 iters=1 complete";
    "random/r140 t=0.3/1 [{0,1,2,3,4,5}] 3ff02aeabad0b482 cands=1 calls=1 iters=0 timed_out@2";
    "random/r140 t=0.3/1000 [{0,1}|{2,3,4}|{5}] 3fe901cf1caf6ce8 cands=59 calls=2 iters=1 complete";
    "random/r140 t=0.3/65535 [{0,1}|{2,3,4}|{5}] 3fe901cf1caf6ce8 cands=59 calls=2 iters=1 complete";
    "random/r140 t=0.3/65536 [{0,1}|{2,3,4}|{5}] 3fe901cf1caf6ce8 cands=59 calls=2 iters=1 complete";
    "random/r152 t [{0,1}|{2,6}|{3}|{4,8}|{5}|{7}|{9}|{10}] 400e13474cadcb9c cands=10185 calls=5 iters=5 complete";
    "random/r152 t/1 [{0,1,2,3,4,5,6,7,8,9,10}] 401b1f0e437303f6 cands=1 calls=1 iters=5 timed_out@2";
    "random/r152 t/1000 [{0,1,2,3,4,5,6,7,8,9,10}] 401b1f0e437303f6 cands=991 calls=1 iters=5 timed_out@1001";
    "random/r152 t/20000 [{0,1}|{2,6}|{3}|{4,8}|{5}|{7}|{9}|{10}] 400e13474cadcb9c cands=10186 calls=6 iters=5 complete";
    "random/r152 t/65535 [{0,1}|{2,6}|{3}|{4,8}|{5}|{7}|{9}|{10}] 400e13474cadcb9c cands=10186 calls=6 iters=5 complete";
    "random/r152 t/65536 [{0,1}|{2,6}|{3}|{4,8}|{5}|{7}|{9}|{10}] 400e13474cadcb9c cands=10186 calls=6 iters=5 complete";
    "random/r152 t/300000 [{0,1}|{2,6}|{3}|{4,8}|{5}|{7}|{9}|{10}] 400e13474cadcb9c cands=10186 calls=6 iters=5 complete";
    "random/r152 t/cancelled [{0,1,2,3,4,5,6,7,8,9,10}] 401b1f0e437303f6 cands=1 calls=1 iters=5 timed_out@0";
    "random/r152 t=0.1 [{0,1,2,3,4,5,6,8,9,10}|{7}] 401cb1362d7a19cf cands=2036 calls=0 iters=1 complete";
    "random/r152 t=0.3 [{0,1}|{2,5,6,10}|{3,4,8,9}|{7}] 40144e19783a785f cands=2036 calls=0 iters=1 complete";
    "random/r152 t=0.5 [{0,1}|{2,6}|{3}|{4,8,9}|{5,10}|{7}] 400ed99bfca09889 cands=2036 calls=0 iters=1 complete";
    "random/r152 t=0.3/1 [{0,1,2,3,4,5,6,7,8,9,10}] 401b1f0e437303f6 cands=1 calls=1 iters=0 timed_out@2";
    "random/r152 t=0.3/1000 [{0,1,2,3,4,5,6,7,8,9,10}] 401b1f0e437303f6 cands=991 calls=1 iters=0 timed_out@1001";
    "random/r152 t=0.3/65535 [{0,1}|{2,5,6,10}|{3,4,8,9}|{7}] 40144e19783a785f cands=2038 calls=2 iters=1 complete";
    "random/r152 t=0.3/65536 [{0,1}|{2,5,6,10}|{3,4,8,9}|{7}] 40144e19783a785f cands=2038 calls=2 iters=1 complete";
  ]

let test_trojan_equivalence () =
  Alcotest.(check (list string)) "observations" expected (observations ())

let suite =
  [ Alcotest.test_case "trojan equivalence" `Slow test_trojan_equivalence ]
