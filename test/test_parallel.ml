(* vp_parallel: the work pool, Once and the cost cache. *)

open Vp_core

let disk = Vp_cost.Disk.default

(* --- Pool --- *)

let test_pool_ordering () =
  let inputs = List.init 25 Fun.id in
  List.iter
    (fun jobs ->
      let got =
        Vp_parallel.Pool.run_list ~jobs
          (List.map
             (fun i () ->
               (* Uneven work so completion order differs from submission
                  order when domains are available. *)
               let n = ref 0 in
               for _ = 1 to (25 - i) * 1000 do
                 incr n
               done;
               i * i)
             inputs)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "submission order, jobs=%d" jobs)
        (List.map (fun i -> i * i) inputs)
        got)
    [ 1; 2; 4 ]

let test_pool_empty_and_map () =
  Alcotest.(check (list int)) "empty" [] (Vp_parallel.Pool.run_list ~jobs:4 []);
  Vp_parallel.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list string))
        "map"
        [ "0"; "1"; "2"; "3" ]
        (Vp_parallel.Pool.map pool string_of_int [ 0; 1; 2; 3 ]);
      (* The pool is reusable across batches. *)
      Alcotest.(check (list int))
        "second batch" [ 10; 20 ]
        (Vp_parallel.Pool.map pool (fun x -> x * 10) [ 1; 2 ]))

let test_pool_exception () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "earliest failure wins, jobs=%d" jobs)
        (Failure "boom2")
        (fun () ->
          ignore
            (Vp_parallel.Pool.run_list ~jobs
               (List.init 6 (fun i () ->
                    if i >= 2 then failwith (Printf.sprintf "boom%d" i)
                    else i)))))
    [ 1; 4 ]

let test_pool_jobs_accounting () =
  let cores = max 1 (Domain.recommended_domain_count ()) in
  Vp_parallel.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs=1 is one domain" 1
        (Vp_parallel.Pool.domain_count pool));
  Vp_parallel.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "requested jobs" 4 (Vp_parallel.Pool.jobs pool);
      Alcotest.(check int) "domain count clamped to the cores" (min 4 cores)
        (Vp_parallel.Pool.domain_count pool))

let test_default_jobs_env () =
  let old = Sys.getenv_opt "VP_JOBS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "VP_JOBS" (Option.value old ~default:""))
    (fun () ->
      Unix.putenv "VP_JOBS" "3";
      Alcotest.(check int) "VP_JOBS wins" 3 (Vp_parallel.Pool.default_jobs ());
      Unix.putenv "VP_JOBS" "not-a-number";
      Alcotest.(check int) "garbage falls back"
        (Domain.recommended_domain_count ())
        (Vp_parallel.Pool.default_jobs ()))

let test_run_results () =
  List.iter
    (fun jobs ->
      Vp_parallel.Pool.with_pool ~jobs (fun pool ->
          let outcomes =
            Vp_parallel.Pool.run_results pool
              (List.init 8 (fun i ->
                   ( Printf.sprintf "t%d" i,
                     fun () ->
                       if i mod 3 = 1 then failwith (Printf.sprintf "boom%d" i)
                       else i * 7 )))
          in
          Alcotest.(check int)
            (Printf.sprintf "one result per task, jobs=%d" jobs)
            8 (List.length outcomes);
          List.iteri
            (fun i outcome ->
              match outcome with
              | Ok v ->
                  Alcotest.(check bool) "success slot" true (i mod 3 <> 1);
                  Alcotest.(check int) "value in order" (i * 7) v
              | Error (e : Vp_parallel.Pool.error) ->
                  (* Failures carry their label and exception; the other
                     tasks still ran. *)
                  Alcotest.(check bool) "failure slot" true (i mod 3 = 1);
                  Alcotest.(check string) "label" (Printf.sprintf "t%d" i)
                    e.label;
                  Alcotest.(check bool) "exception kept" true
                    (e.exn = Failure (Printf.sprintf "boom%d" i)))
            outcomes))
    [ 1; 4 ]

let test_with_pool_survives_worker_death () =
  (* A worker domain dying mid-batch must neither hang the pool nor leak
     the surviving domains: the batch completes (drained by the caller and
     the remaining workers), and shutdown joins every domain before
     re-raising the dead worker's exception. *)
  match
    Vp_parallel.Pool.with_pool ~jobs:4 (fun pool ->
        if Vp_parallel.Pool.domain_count pool < 2 then `Single_core
        else begin
          Vp_parallel.Pool.inject_raw pool (fun () -> failwith "worker down");
          (* Give a blocked worker time to pick the poisoned task up. *)
          Unix.sleepf 0.05;
          let got =
            Vp_parallel.Pool.run pool
              (List.init 16 (fun i () ->
                   ignore (Sys.opaque_identity (i * i));
                   i))
          in
          Alcotest.(check (list int))
            "batch completes despite a dead worker" (List.init 16 Fun.id) got;
          `Ran
        end)
  with
  | `Single_core -> ()
  | `Ran -> Alcotest.fail "expected shutdown to re-raise the worker's death"
  | exception Failure m ->
      Alcotest.(check string) "worker's exception surfaces" "worker down" m

(* --- Once --- *)

let test_once () =
  let evals = ref 0 in
  let o =
    Vp_parallel.Once.create (fun () ->
        incr evals;
        !evals * 100)
  in
  Alcotest.(check int) "first get" 100 (Vp_parallel.Once.get o);
  Alcotest.(check int) "memoized" 100 (Vp_parallel.Once.get o);
  Alcotest.(check int) "one evaluation" 1 !evals;
  Vp_parallel.Once.reset o;
  Alcotest.(check int) "recomputed after reset" 200 (Vp_parallel.Once.get o);
  Alcotest.(check int) "two evaluations" 2 !evals

let test_once_exception_retries () =
  let attempts = ref 0 in
  let o =
    Vp_parallel.Once.create (fun () ->
        incr attempts;
        if !attempts = 1 then failwith "flaky" else !attempts)
  in
  Alcotest.check_raises "first get raises" (Failure "flaky") (fun () ->
      ignore (Vp_parallel.Once.get o));
  Alcotest.(check int) "retry succeeds" 2 (Vp_parallel.Once.get o)

(* --- Cost_cache --- *)

let some_partitionings n =
  let state = Random.State.make [| 42 |] in
  Partitioning.row n :: Partitioning.column n
  :: List.init 10 (fun _ ->
         Enumeration.random_partitioning (Random.State.int state) n)

let test_cache_matches_io_model () =
  let w = Testutil.partsupp_workload in
  let n = Table.attribute_count (Workload.table w) in
  Vp_parallel.Cost_cache.(clear global);
  let qcached = Vp_parallel.Cost_cache.query_oracle disk w in
  (* Two passes: the second one is served from the cache and must return
     bit-identical floats. *)
  for pass = 1 to 2 do
    List.iter
      (fun p ->
        let expect = Vp_cost.Io_model.workload_cost disk w p in
        Alcotest.(check (float 0.))
          (Printf.sprintf "query-grained cache, pass %d" pass)
          expect (qcached p))
      (some_partitionings n)
  done;
  Alcotest.(check bool) "query cache hits" true
    (Vp_parallel.Cost_cache.(stats global).hits > 0)

(* partsupp's two queries have distinct footprints: one evaluation is two
   lookups under two keys. *)
let test_cache_stats_and_clear () =
  let w = Testutil.partsupp_workload in
  let cache = Vp_parallel.Cost_cache.global in
  Vp_parallel.Cost_cache.clear cache;
  let cached = Vp_parallel.Cost_cache.query_oracle disk w in
  let p = Partitioning.column 5 in
  ignore (cached p);
  ignore (cached p);
  let s = Vp_parallel.Cost_cache.stats cache in
  Alcotest.(check int) "two misses" 2 s.Vp_parallel.Cost_cache.misses;
  Alcotest.(check int) "two hits" 2 s.Vp_parallel.Cost_cache.hits;
  Alcotest.(check int) "two entries" 2 s.Vp_parallel.Cost_cache.entries;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5
    (float_of_int s.hits /. float_of_int (s.hits + s.misses));
  Vp_parallel.Cost_cache.clear cache;
  let s = Vp_parallel.Cost_cache.stats cache in
  Alcotest.(check int) "cleared entries" 0 s.Vp_parallel.Cost_cache.entries;
  Alcotest.(check int) "cleared hits" 0 s.Vp_parallel.Cost_cache.hits

let test_fingerprint_sensitivity () =
  let table = Workload.table Testutil.partsupp_workload in
  let fp = Vp_parallel.Cost_cache.context_fingerprint disk table in
  Alcotest.(check string) "deterministic" fp
    (Vp_parallel.Cost_cache.context_fingerprint disk table);
  let bigger_buffer =
    Vp_cost.Disk.with_buffer_size disk (2 * disk.Vp_cost.Disk.buffer_size)
  in
  Alcotest.(check bool) "disk profile changes it" true
    (fp <> Vp_parallel.Cost_cache.context_fingerprint bigger_buffer table);
  Alcotest.(check bool) "table schema changes it" true
    (fp <> Vp_parallel.Cost_cache.context_fingerprint disk Testutil.tiny)

let suite =
  [
    Alcotest.test_case "pool ordering" `Quick test_pool_ordering;
    Alcotest.test_case "pool empty + map" `Quick test_pool_empty_and_map;
    Alcotest.test_case "pool exceptions" `Quick test_pool_exception;
    Alcotest.test_case "pool jobs accounting" `Quick test_pool_jobs_accounting;
    Alcotest.test_case "default jobs env" `Quick test_default_jobs_env;
    Alcotest.test_case "run_results totality" `Quick test_run_results;
    Alcotest.test_case "with_pool survives worker death" `Quick
      test_with_pool_survives_worker_death;
    Alcotest.test_case "once" `Quick test_once;
    Alcotest.test_case "once exception retries" `Quick test_once_exception_retries;
    Alcotest.test_case "cache matches io model" `Quick test_cache_matches_io_model;
    Alcotest.test_case "cache stats + clear" `Quick test_cache_stats_and_clear;
    Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
  ]
