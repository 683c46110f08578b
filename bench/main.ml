(* The runtime gates that need a process of their own: a wall-time
   ratio, a fleet of shard processes, or a process-wide heap high-water
   mark. Every deterministic gate lives in the tier-1 suite
   (`dune runtest`), and `vp experiment all` regenerates the paper's
   tables and figures.

   Usage:
     bench/main.exe --mode oracle|recovery|cluster|scale

   Each mode prints its measurements and one line per gate, and exits 1
   when any of its gates fails:

     oracle    full BruteForce enumeration of Bell(11) = 678,570 layouts:
               12 synthetic attributes priced by full re-costing vs 15
               attributes (a different table, same 11-atom search space)
               priced by the incremental delta oracle. The 15-attribute
               run must fit the 12-attribute run's wall time.
     recovery  one 400-query stream ingested into an in-memory and into a
               durable session registry, best of 3 each: WAL-on ingest
               time within 1.15x of WAL-off, histories identical.
     cluster   a consistent-hash router in front of 3 shard daemons
               (re-execs of this binary): a 10,000-session closed loop,
               then a shard added under live traffic. Shed rate <= 0.5 in
               each phase, at least one session handed off, and every
               served history identical to the local replay.
     scale     the streaming substrate at SF 100 — a generation probe,
               the out-of-core row-to-column transform and a virtual scan
               over 600M rows, each replayed identically — under a
               512 MiB peak-heap gate. *)

(* Shard workers are re-execs of this very binary; the sentinel check
   must run before anything else looks at argv. *)
let () = Vp_router.Worker.maybe_run ()

open Vp_core

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let counter_now name =
  Vp_observe.Stats.counter_value (Vp_observe.Stats.snapshot ()) name

(* Prints each gate's verdict; [false] when any gate failed. *)
let check gates =
  List.iter
    (fun (name, ok) ->
      Printf.printf "  gate: %-52s %s\n%!" name (if ok then "ok" else "FAILED"))
    gates;
  List.for_all snd gates

(* --- oracle: the delta oracle buys three more attributes of exhaustive
   search. Seeds chosen so both tables decompose into exactly 11 primary
   partitions: the two enumerations visit the same Bell(11) candidate
   layouts and differ only in how each candidate is costed. --- *)

(* The 15-attribute delta run may take at most this multiple of the
   12-attribute full run's wall time. *)
let oracle_time_ratio_gate = 1.0

let oracle_mode () =
  let disk = Vp_experiments.Common.disk in
  let algo = Vp_algorithms.Brute_force.make () in
  let run ~with_delta w =
    let qc0 = counter_now "cost.query_costs" in
    let oracle = Vp_cost.Io_model.oracle disk w in
    let delta =
      if with_delta then Some (Vp_cost.Io_model.Incremental.factory disk w)
      else None
    in
    let (_ : Partitioner.Response.t), wall =
      time (fun () ->
          Partitioner.exec algo
            (Partitioner.Request.make ?delta ~cost:oracle w))
    in
    (wall, counter_now "cost.query_costs" - qc0)
  in
  let w12 =
    Vp_benchmarks.Synthetic.workload ~seed:1L ~rows:100_000 ~attributes:12
      ~clusters:4 ~queries:12 ~scatter:0.1 ()
  in
  let w15 =
    Vp_benchmarks.Synthetic.workload ~seed:5L ~rows:100_000 ~attributes:15
      ~clusters:4 ~queries:16 ~scatter:0.1 ()
  in
  let atoms w = List.length (Workload.primary_partitions w) in
  let t12, qc12 = run ~with_delta:false w12 in
  let t15, qc15 = run ~with_delta:true w15 in
  Printf.printf
    "  bruteforce full  12 attrs, %2d atoms: %6.3f s (%d query re-costs)\n\
    \  bruteforce delta 15 attrs, %2d atoms: %6.3f s (%d query re-costs)\n%!"
    (atoms w12) t12 qc12 (atoms w15) t15 qc15;
  [
    ( "15-attr delta within 12-attr full budget",
      t15 <= oracle_time_ratio_gate *. t12 );
  ]

(* --- recovery: what durability costs per ingest. Runs at the Sessions
   level (no TCP), so the ratio measures the WAL append path, not the
   socket stack. --- *)

let wal_overhead_gate = 1.15

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir tag f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vp-bench-%s-%d" tag (Unix.getpid ()))
  in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let ok_or_fail = function Ok v -> v | Error msg -> failwith msg

(* Only the ingest loop is timed — registry setup and the (fsynced)
   open-time meta write are one-offs, not per-query cost — and each
   variant takes the best of three runs so the ratio measures the append
   path, not scheduler noise. *)
let recovery_mode () =
  let w =
    Vp_benchmarks.Synthetic.drift_workload ~seed:71L ~attributes:8 ~clusters:3
      ~rows:50_000 ~queries:400 ~scatter:0.05 ~drift_at:0.5 ()
  in
  let table = Workload.table w in
  let session = "overhead" in
  let spec =
    {
      Vp_server.Protocol.session;
      table;
      panel = [ "HillClimb" ];
      drift_ratio = 2.0;
      min_window = 8;
      epoch = 64;
      memory = 32;
      horizon = 1.0;
      budget_steps = None;
      buffer_mb = 1.0;
    }
  in
  let run reg =
    ignore (ok_or_fail (Vp_server.Sessions.open_session reg spec));
    let (), seconds =
      time (fun () ->
          Array.iteri
            (fun i q ->
              ignore
                (ok_or_fail
                   (Vp_server.Sessions.ingest reg session ~seq:(i + 1)
                      ~attributes:
                        (Table.names_of_attr_set table (Query.references q))
                      ~weight:(Query.weight q) ~name:(Query.name q) ())))
            (Workload.queries w))
    in
    let history =
      Vp_server.Sessions.view reg session Vp_online.Service.history
    in
    (ok_or_fail history, seconds)
  in
  let best_of_3 mk =
    let runs = List.init 3 (fun _ -> mk ()) in
    ( fst (List.hd runs),
      List.fold_left (fun acc (_, s) -> Float.min acc s) infinity runs )
  in
  let hist_off, t_off =
    best_of_3 (fun () -> run (Vp_server.Sessions.create ()))
  in
  let hist_on, t_on =
    best_of_3 (fun () ->
        with_temp_dir "wal" (fun dir ->
            run (Vp_server.Sessions.create ~data_dir:dir ())))
  in
  let ratio = if t_off > 0.0 then t_on /. t_off else 0.0 in
  Printf.printf "  WAL overhead: off %.4fs, on %.4fs, ratio %.3f\n%!" t_off t_on
    ratio;
  [
    ( Printf.sprintf "WAL overhead <= %.2fx" wal_overhead_gate,
      ratio <= wal_overhead_gate );
    ("WAL-on history = WAL-off history", String.equal hist_off hist_on);
  ]

(* --- cluster: the consistent-hash router in front of 3 shard daemons
   (separate processes, re-execs of this binary — see the [maybe_run]
   hook at the top of the file).

   closed-loop   8 client domains drive 10,000 shallow sessions (open +
                 3 sequenced ingests + close) through the router; every
                 close returns the session's decision history, checked
                 byte-for-byte against one locally replayed expectation.

   handoff       48 deep drift sessions ingest concurrently; once every
                 worker passes the halfway mark a shard is added
                 ([cluster_add]), so live sessions spill, move between
                 data dirs and are adopted mid-stream while the ingest
                 loops ride out the shed window on seq-idempotent
                 retries. --- *)

(* Shed replies over all replies, per phase. *)
let cluster_shed_rate_gate = 0.5

(* Sessions the mid-run ring change must hand off. *)
let cluster_min_moved = 1

let cluster_shards = 3

let cluster_clients = 8

type phase = {
  requests : int;
  errors : int;
  shed : int;
  violations : int;
  seconds : float;
}

let shed_rate p =
  let total = p.requests + p.shed in
  if total > 0 then float_of_int p.shed /. float_of_int total else 0.0

let with_cluster ~tag f =
  with_temp_dir tag (fun dir ->
      let r =
        Vp_router.Router.create ~port:0 ~shards:cluster_shards ~shard_jobs:4
          ~data_dir:dir ()
      in
      let server = Domain.spawn (fun () -> Vp_router.Router.serve r) in
      Fun.protect
        ~finally:(fun () ->
          Vp_router.Router.stop r;
          Domain.join server)
        (fun () -> f r (Vp_router.Router.port r)))

(* The fleet-wide [server.shed], from the router's aggregated [stats]
   reply (the shards are separate processes — their counters are not in
   this process's snapshot). *)
let cluster_fleet_shed port =
  let c = Vp_client.Client.create ~port () in
  Fun.protect
    ~finally:(fun () -> Vp_client.Client.close c)
    (fun () ->
      match Vp_client.Client.server_stats c with
      | Ok reply -> (
          match Vp_observe.Json.member "counters" reply with
          | Some (Vp_observe.Json.Obj fields) -> (
              match List.assoc_opt "server.shed" fields with
              | Some (Vp_observe.Json.Int n) -> n
              | _ -> 0)
          | _ -> 0)
      | Error _ -> 0)

(* The local expectation every served history is compared against: the
   same stream replayed in-process under the daemon's default session
   spec (HillClimb panel, 1 MiB buffer). *)
let cluster_expected_history w =
  let config =
    Vp_online.Service.default_config ~jobs:1
      ~disk:
        (Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default
           (Vp_cost.Disk.mb 1.0))
      ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
      ()
  in
  (Vp_online.Replay.run ~config w).Vp_online.Replay.history

let quantile_ms hist q =
  match
    List.assoc_opt hist
      (Vp_observe.Stats.snapshot ()).Vp_observe.Stats.histograms
  with
  | Some summary -> Vp_observe.Stats.quantile summary q
  | None -> 0.0

(* One request, timed into the phase histogram; [Ok]s count, [Error]s
   are the caller's to score. *)
let cluster_timed hist ok errors f =
  let t0 = Unix.gettimeofday () in
  match f () with
  | Ok v ->
      incr ok;
      Vp_observe.Stats.observe hist ((Unix.gettimeofday () -. t0) *. 1000.0);
      Some v
  | Error _ ->
      incr errors;
      None

(* Sums the workers' (ok, errors, violations) and reads the shed count
   the phase caused, router and shards together. *)
let cluster_phase ~port ~shed0 ~seconds outcomes =
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  {
    requests = sum (fun (ok, _, _) -> ok);
    errors = sum (fun (_, e, _) -> e);
    violations = sum (fun (_, _, v) -> v);
    shed = counter_now "router.shed" - shed0 + cluster_fleet_shed port;
    seconds;
  }

let print_phase name hist p extra =
  Printf.printf
    "  %-12s %d ok, %d errors, %d shed (rate %.4f), %6.2f s (%8.1f req/s, \
     p50 %.1f ms, p99 %.1f ms)%s\n\
     %!"
    name p.requests p.errors p.shed (shed_rate p) p.seconds
    (if p.seconds > 0.0 then float_of_int p.requests /. p.seconds else 0.0)
    (quantile_ms hist 0.5) (quantile_ms hist 0.99) extra

let cluster_closed_loop () =
  let hist_name = "bench.closed-loop" in
  let hist = Vp_observe.Stats.histogram hist_name in
  let w =
    Vp_benchmarks.Synthetic.workload ~seed:21L ~rows:50_000 ~attributes:8
      ~clusters:3 ~queries:3 ~scatter:0.05 ()
  in
  let table = Workload.table w in
  let queries = Array.to_list (Workload.queries w) in
  let expected = cluster_expected_history w in
  let sessions = 10_000 in
  let per = sessions / cluster_clients in
  let shed0 = counter_now "router.shed" in
  with_cluster ~tag:"cluster-closed" (fun _r port ->
      let worker k () =
        let c =
          Vp_client.Client.create ~port ~retry_seed:(Int64.of_int k) ()
        in
        Fun.protect
          ~finally:(fun () -> Vp_client.Client.close c)
          (fun () ->
            let ok = ref 0 and errors = ref 0 and violations = ref 0 in
            for s = k * per to ((k + 1) * per) - 1 do
              let session = Printf.sprintf "c%05d" s in
              match
                cluster_timed hist ok errors (fun () ->
                    Vp_client.Client.open_session c ~session ~buffer_mb:1.0
                      table)
              with
              | None -> ()
              | Some _opened -> (
                  List.iteri
                    (fun j q ->
                      ignore
                        (cluster_timed hist ok errors (fun () ->
                             Vp_client.Client.ingest ~seq:(j + 1) c ~session
                               table q)))
                    queries;
                  match
                    cluster_timed hist ok errors (fun () ->
                        Vp_client.Client.close_session c ~session)
                  with
                  | Some h when String.equal h expected -> ()
                  | Some _ -> incr violations
                  | None -> ())
            done;
            (!ok, !errors, !violations))
      in
      let outcomes, seconds =
        time (fun () ->
            List.map Domain.join
              (List.init cluster_clients (fun k -> Domain.spawn (worker k))))
      in
      let p = cluster_phase ~port ~shed0 ~seconds outcomes in
      print_phase "closed-loop" hist_name p
        (Printf.sprintf ", %d sessions" sessions);
      p)

let cluster_handoff () =
  let hist_name = "bench.handoff" in
  let hist = Vp_observe.Stats.histogram hist_name in
  let w =
    Vp_benchmarks.Synthetic.drift_workload ~seed:22L ~attributes:8 ~clusters:3
      ~rows:50_000 ~queries:50 ~scatter:0.05 ~drift_at:0.5 ()
  in
  let table = Workload.table w in
  let queries = Array.to_list (Workload.queries w) in
  let half = List.length queries / 2 in
  let expected = cluster_expected_history w in
  let sessions = 48 in
  let per = sessions / cluster_clients in
  let shed0 = counter_now "router.shed" in
  with_cluster ~tag:"cluster-handoff" (fun r port ->
      (* Workers bump this once their sessions pass the halfway mark;
         the main thread then changes the ring under live traffic.
         Workers hold their sessions open until [handoff_done] so every
         session in the ring's deterministic moving set is still
         resident when the handoff runs — otherwise the moved count
         (and the handoff cost it prices) depends on worker speed. *)
      let at_half = Atomic.make 0 in
      let handoff_done = Atomic.make false in
      let worker k () =
        let ok = ref 0 and errors = ref 0 and violations = ref 0 in
        let mine =
          List.init per (fun i -> Printf.sprintf "h%03d" ((k * per) + i))
        in
        let with_conn seed f =
          let c =
            Vp_client.Client.create ~port ~retry_seed:(Int64.of_int seed) ()
          in
          Fun.protect
            ~finally:(fun () -> Vp_client.Client.close c)
            (fun () -> f c)
        in
        with_conn
          (100 + k)
          (fun c ->
            List.iter
              (fun session ->
                ignore
                  (cluster_timed hist ok errors (fun () ->
                       Vp_client.Client.open_session c ~session ~buffer_mb:1.0
                         table)))
              mine;
            List.iteri
              (fun j q ->
                if j = half then Atomic.incr at_half;
                List.iter
                  (fun session ->
                    ignore
                      (cluster_timed hist ok errors (fun () ->
                           Vp_client.Client.ingest ~seq:(j + 1) c ~session
                             table q)))
                  mine)
              queries);
        (* The connection is gone (freeing a router slot for the control
           client and the slower workers) but the sessions are not: they
           live on the shards until closed. Wait out the ring change,
           then close over a fresh connection. *)
        while not (Atomic.get handoff_done) do
          Unix.sleepf 0.002
        done;
        with_conn
          (200 + k)
          (fun c ->
            List.iter
              (fun session ->
                match
                  cluster_timed hist ok errors (fun () ->
                      Vp_client.Client.close_session c ~session)
                with
                | Some h when String.equal h expected -> ()
                | Some _ -> incr violations
                | None -> ())
              mine);
        (!ok, !errors, !violations)
      in
      let t0 = Unix.gettimeofday () in
      let domains =
        List.init cluster_clients (fun k -> Domain.spawn (worker k))
      in
      (* Ring change under load: wait for every worker to reach the
         halfway mark, then add a shard. The request returns once every
         moving session has been spilled, renamed and adopted — its
         duration IS the handoff cost. *)
      while Atomic.get at_half < cluster_clients do
        Unix.sleepf 0.005
      done;
      let moved, handoff_seconds =
        let c = Vp_client.Client.create ~port () in
        Fun.protect
          ~finally:(fun () ->
            Atomic.set handoff_done true;
            Vp_client.Client.close c)
          (fun () ->
            let reply, dt =
              time (fun () ->
                  Vp_client.Client.request_retry c
                    (Vp_observe.Json.Obj
                       [ ("op", Vp_observe.Json.String "cluster_add") ]))
            in
            match reply with
            | Ok reply when Vp_server.Protocol.reply_status reply = "ok" ->
                ( Option.value ~default:0
                    (Vp_server.Protocol.int_field "moved" reply),
                  dt )
            | Ok _ | Error _ -> (0, dt))
      in
      let outcomes = List.map Domain.join domains in
      let seconds = Unix.gettimeofday () -. t0 in
      let p = cluster_phase ~port ~shed0 ~seconds outcomes in
      print_phase "handoff" hist_name p
        (Printf.sprintf
           ", %d sessions, shard added (now %d): %d moved in %.3f s"
           sessions
           (Vp_router.Router.shard_count r)
           moved handoff_seconds);
      (p, moved))

let cluster_mode () =
  let closed = cluster_closed_loop () in
  let handoff, moved = cluster_handoff () in
  [
    ( Printf.sprintf "closed-loop shed rate <= %.2f" cluster_shed_rate_gate,
      shed_rate closed <= cluster_shed_rate_gate );
    ( Printf.sprintf "handoff shed rate <= %.2f" cluster_shed_rate_gate,
      shed_rate handoff <= cluster_shed_rate_gate );
    ( Printf.sprintf "sessions moved by the ring change >= %d"
        cluster_min_moved,
      moved >= cluster_min_moved );
    ("determinism violations = 0", closed.violations + handoff.violations = 0);
  ]

(* --- scale: the streaming substrate at a scale factor the materializing
   path could not hold. [Gc.quick_stat ()].top_heap_words is a
   process-wide high-water mark and this mode is the only thing the
   process does, so the gate really bounds the streaming pipeline's
   working set. --- *)

let scale_sf = 100.0

let scale_heap_gate_mb = 512.0

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. (1024.0 *. 1024.0)

(* A bounded prefix of the SF100 lineitem stream, timed for throughput;
   then the last chunk by index — random access near row 600M costs the
   same O(chunk) as chunk 0, the property the pool fan-out builds on. A
   second generator with the same seed must reproduce both ends of the
   stream, and the pool-fanned SF 0.1 digest must be equal at jobs 1 and
   jobs 4. *)
let scale_generate table source =
  let chunks = Vp_stream.Source.chunk_count source in
  let prefix = 4 in
  let prefix_rows, seconds =
    time (fun () ->
        let rows = ref 0 in
        for c = 0 to prefix - 1 do
          rows := !rows + Array.length (Vp_stream.Source.chunk source c)
        done;
        !rows)
  in
  let last, last_seconds =
    time (fun () -> Vp_stream.Source.chunk source (chunks - 1))
  in
  let again = Vp_stream.Source.of_rowgen (Vp_datagen.Rowgen.create ()) table in
  Printf.printf
    "  generate   %d of %d chunks in %.2f s (%.0f rows/s), tail chunk in \
     %.3f s\n\
     %!"
    prefix chunks seconds
    (if seconds > 0.0 then float_of_int prefix_rows /. seconds else 0.0)
    last_seconds;
  let small =
    Vp_stream.Source.of_rowgen (Vp_datagen.Rowgen.create ())
      (Vp_benchmarks.Tpch.table ~sf:0.1 "lineitem")
  in
  let digest_at jobs =
    Vp_parallel.Pool.with_pool ~jobs @@ fun pool ->
    Vp_stream.Source.digest ~pool small
  in
  Vp_stream.Source.chunk again 0 = Vp_stream.Source.chunk source 0
  && Vp_stream.Source.chunk again (chunks - 1) = last
  && digest_at 1 = digest_at 4

(* Row-to-column transform: pure block-geometry accounting (the virtual
   fast path), so it finishes in seconds without touching 90 GB of rows —
   and a second run replays the identical request sequence. *)
let scale_transform table source layout =
  let disk = Vp_experiments.Common.disk in
  let r, seconds =
    time (fun () -> Vp_storage.Creation.transform ~disk table source layout)
  in
  Printf.printf
    "  transform  %d -> %d blocks, %.1f simulated s in %.2f wall s\n%!"
    r.Vp_storage.Creation.source_blocks r.Vp_storage.Creation.written_blocks
    r.Vp_storage.Creation.io.Vp_storage.Device.elapsed seconds;
  r = Vp_storage.Creation.transform ~disk table source layout

(* Build the table as virtual (accounting-only) partition files and run
   the first lineitem query: the executor replays the materialized scan's
   refill schedule without decoding, so the whole thing stays in a fixed
   working set. *)
let scale_scan table source layout =
  let disk = Vp_experiments.Common.disk in
  let w = Vp_benchmarks.Tpch.workload ~sf:scale_sf "lineitem" in
  let db, build_seconds =
    time (fun () ->
        Vp_storage.Database.build ~retain:false ~disk
          ~codec:Vp_storage.Codec.Plain table source layout)
  in
  let q = (Workload.queries w).(0) in
  let r, scan_seconds = time (fun () -> Vp_storage.Database.run_query db q) in
  Printf.printf
    "  scan       Q1 over %d rows: %d partitions, %d blocks, %.1f simulated \
     s in %.2f wall s\n\
     %!"
    r.Vp_storage.Database.rows_out r.Vp_storage.Database.partitions_read
    r.Vp_storage.Database.io.Vp_storage.Device.blocks_read
    r.Vp_storage.Database.io.Vp_storage.Device.elapsed
    (build_seconds +. scan_seconds);
  r = Vp_storage.Database.run_query db q
  && r.Vp_storage.Database.checksum = 0
  && r.Vp_storage.Database.rows_out = Table.row_count table

let scale_mode () =
  let table = Vp_benchmarks.Tpch.table ~sf:scale_sf "lineitem" in
  let source = Vp_stream.Source.of_rowgen (Vp_datagen.Rowgen.create ()) table in
  let layout = Partitioning.column (Table.attribute_count table) in
  let generated = scale_generate table source in
  let transformed = scale_transform table source layout in
  let scanned = scale_scan table source layout in
  let peak = peak_heap_mb () in
  Printf.printf "  SF100 peak heap: %.1f MiB\n%!" peak;
  [
    ("generation replays identically, jobs 1 = jobs 4", generated);
    ("transform replays identically", transformed);
    ("virtual scan replays identically, all rows", scanned);
    ( Printf.sprintf "SF100 peak heap <= %.0f MiB" scale_heap_gate_mb,
      peak <= scale_heap_gate_mb );
  ]

let () =
  let name, run =
    match Sys.argv with
    | [| _; "--mode"; "oracle" |] ->
        ("Cost oracle: delta vs full BruteForce enumeration", oracle_mode)
    | [| _; "--mode"; "recovery" |] ->
        ("Durable sessions: WAL ingest overhead", recovery_mode)
    | [| _; "--mode"; "cluster" |] ->
        ("Sharded cluster: closed loop + handoff", cluster_mode)
    | [| _; "--mode"; "scale" |] ->
        ("Streaming substrate: constant-memory SF100", scale_mode)
    | _ ->
        prerr_endline "usage: main.exe --mode oracle|recovery|cluster|scale";
        exit 2
  in
  Vp_observe.Switch.(raise_to Stats);
  print_string (Vp_experiments.Common.heading name);
  if not (check (run ())) then exit 1
