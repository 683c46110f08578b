(* The sweep workload: the full experiment catalogue in-process, cold
   caches, at [jobs = nproc]. No network. Its time goes to the
   algorithms, the cost model, the cost cache and pool, and to storage,
   datagen and streaming (table7); a storage or cost-cache change shows
   here while the serve workload should not move.

   The operation a user of the sweep waits for is the whole sweep, so
   the op metrics count sweeps. Per-cell times are printed beside them
   but not gated: 26 cells of very different lengths, some waiting on a
   shared memo, put the cell median and tail between clusters that swap
   places from run to run.

   Correctness: no cell may end in Error or Timeout, and every cell that
   prints no wall-clock value must render the bytes recorded in
   [sweep_reference.txt] (the cells listed in [masked] print timings). *)

open Vp_core
module Experiments = Vp_experiments
module Samples = Report.Samples

let masked = [ "fig1"; "fig2"; "fig10"; "ablations"; "portfolio" ]

let reference_file = "perfbench/sweep_reference.txt"

let jobs () = Domain.recommended_domain_count ()

let now = Unix.gettimeofday

let reference () =
  In_channel.with_open_bin reference_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ id; digest ] -> Some (id, digest)
         | _ -> None)

let digest (c : Experiments.Sweep.cell) = Digest.to_hex (Digest.string c.output)

let check_cells reference cells =
  List.concat_map
    (fun (c : Experiments.Sweep.cell) ->
      (match c.status with
      | Experiments.Sweep.Done -> []
      | Timeout -> [ Printf.sprintf "cell %s timed out" c.id ]
      | Error e -> [ Printf.sprintf "cell %s failed: %s" c.id e ])
      @
      if List.mem c.id masked then []
      else
        match List.assoc_opt c.id reference with
        | None ->
            [ Printf.sprintf "cell %s renders %s, no reference" c.id (digest c) ]
        | Some d when d = digest c -> []
        | Some d ->
            [ Printf.sprintf "cell %s renders %s, reference %s" c.id (digest c) d ])
    cells
  @ List.filter_map
      (fun (id, _) ->
        if List.exists (fun (c : Experiments.Sweep.cell) -> c.id = id) cells
        then None
        else Some (Printf.sprintf "reference cell %s did not run" id))
      reference

(* Set-up: drop every cache the catalogue fills (the memoized TPC-H
   sweep, the global cost cache), compact the heap so each sweep starts
   cold, and generate the catalogue's TPC-H and SSB workloads. It takes
   well under a millisecond, so it is timed [setup_reps] times before
   every sweep and the run reports the median. *)
let setup_reps = 20

let setup () =
  let t0 = now () in
  Experiments.Common.reset_caches ();
  Gc.compact ();
  ignore
    (Sys.opaque_identity
       ( Vp_benchmarks.Tpch.workloads ~sf:Experiments.Common.sf,
         Vp_benchmarks.Ssb.workloads ~sf:Experiments.Common.sf ));
  now () -. t0

let round () =
  Span.with_ "sweep" (fun _ ->
      let t0 = now () in
      let cells = Experiments.Sweep.run ~jobs:(jobs ()) Experiments.Registry.all in
      (now () -. t0, cells))

let cell_seconds cells =
  Array.of_list
    (List.map (fun (c : Experiments.Sweep.cell) -> c.elapsed_seconds) cells)

let facts () =
  [
    ("jobs", string_of_int (jobs ()));
    ("cells", string_of_int (List.length Experiments.Registry.all));
    ("masked", String.concat "," masked);
  ]

let failed_cells cells =
  List.length
    (List.filter
       (fun (c : Experiments.Sweep.cell) -> c.status <> Experiments.Sweep.Done)
       cells)

let timed ~seconds =
  Vp_observe.Switch.set Vp_observe.Switch.Off;
  let reference = reference () in
  let setups = Samples.create () and walls = Samples.create () in
  let all_cells = ref [] and violations = ref [] in
  let peak = ref 0.0 in
  let t_start = now () in
  while Report.another_round ~start:t_start ~seconds walls do
    for _ = 1 to setup_reps do
      Samples.add setups (setup ())
    done;
    let wall, cells = round () in
    (* The peak of one cold sweep, whatever the number of rounds. *)
    if Samples.(walls.n) = 0 then
      peak := float_of_int (Proc.vm_hwm_kib Proc.self_pid) /. 1024.0;
    Samples.add walls wall;
    all_cells := !all_cells @ cells;
    violations := !violations @ check_cells reference cells
  done;
  let cells = !all_cells in
  let walls = Samples.to_array walls in
  let busy = Array.fold_left ( +. ) 0.0 walls in
  let n = List.length cells and failed = failed_cells cells in
  let metrics =
    [
      Report.metric "setup_s" "s" (Stat.median (Samples.to_array setups))
        ~note:(Printf.sprintf "median of %d set-ups" Samples.(setups.n));
      Report.metric "wall_s" "s" (Stat.median walls)
        ~note:(Printf.sprintf "median of %d sweeps" (Array.length walls));
      Report.metric "ops_per_s" "1/s"
        (float_of_int (Array.length walls) /. busy)
        ~note:(Printf.sprintf "%d sweeps in %.3f s" (Array.length walls) busy);
    ]
    @ Report.latency "op" walls
    @ [
        Report.metric "peak_rss_mb" "MiB" !peak
          ~note:"VmHWM of this process after the first sweep";
      ]
  in
  let extra =
    Report.latency "cell" (cell_seconds cells)
    @ [
      Report.metric "fail_ratio" "ratio"
        (Stat.share ~part:(float_of_int failed) ~whole:(float_of_int n))
        ~note:(Printf.sprintf "%d Error/Timeout of %d cells" failed n);
    ]
  in
  {
    Report.violations = !violations;
    attempted = n;
    failed;
    metrics;
    extra;
    facts = facts () @ [ ("rounds", string_of_int (Array.length walls)) ];
  }

(* --- traced run --- *)

(* The registered line-up, the exact searches wired with the cost-model
   lower bound as the catalogue wires them (unbounded they refuse wide
   tables). *)
let lineup () =
  let disk = Experiments.Common.disk in
  let bounded =
    Vp_algorithms.
      [
        (Brute_force.algorithm.name, Experiments.Common.brute_force disk);
        (Ilp.algorithm.name, Ilp.with_bound disk);
        (Portfolio.algorithm.name, Portfolio.with_bound ~jobs:(jobs ()) disk);
      ]
  in
  List.map
    (fun (a : Partitioner.t) ->
      Option.value (List.assoc_opt a.name bounded) ~default:a)
    Vp_algorithms.Registry.all

(* Seconds each registered algorithm spends in [Partitioner.exec] over
   the TPC-H line-up, uncached oracle plus delta factory. *)
let algorithm_seconds () =
  let disk = Experiments.Common.disk in
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:Experiments.Common.sf in
  List.map
    (fun (a : Partitioner.t) ->
      Span.with_ ("algorithm " ^ a.name) (fun parent ->
          let total =
            List.fold_left
              (fun acc w ->
                let cost = Vp_cost.Io_model.oracle disk w in
                let delta = Vp_cost.Io_model.Incremental.factory disk w in
                let req = Partitioner.Request.make ~delta ~cost w in
                Span.with_ ~parent (Table.name (Workload.table w)) (fun _ ->
                    let t0 = now () in
                    ignore (Partitioner.exec a req);
                    acc +. (now () -. t0)))
              0.0 workloads
          in
          (a.name, total)))
    (lineup ())

type storage = {
  build_s : float;
  scan_s : float;
  blocks_read : int;
  values_decoded : int;
  rows : int;
  gen_s : float;
}

(* table7's inputs — TPC-H at the simulator's scale factor, the Row,
   Column and HillClimb layouts, both codecs — built and scanned with
   [Database.build] / [run_workload] timed apart, and the sources'
   chunks generated on their own for the datagen rate. *)
let storage () =
  let module D = Experiments.Exp_dbms in
  let gen = Vp_datagen.Rowgen.create () in
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:D.sim_sf in
  let sources =
    List.map (fun w -> (w, Vp_stream.Source.of_rowgen gen (Workload.table w))) workloads
  in
  let rows = ref 0 and gen_s = ref 0.0 in
  Span.with_ "datagen" (fun _ ->
      List.iter
        (fun (_, src) ->
          let t0 = now () in
          for i = 0 to Vp_stream.Source.chunk_count src - 1 do
            rows := !rows + Array.length (Vp_stream.Source.chunk src i)
          done;
          gen_s := !gen_s +. (now () -. t0))
        sources);
  let build_s = ref 0.0 and scan_s = ref 0.0 in
  let blocks = ref 0 and decoded = ref 0 in
  List.iter
    (fun codec ->
      List.iter
        (fun layout ->
          List.iter
            (fun (w, source) ->
              let w' = D.drop_excluded w in
              if Workload.query_count w' > 0 then begin
                let p = D.layout_for layout w in
                let db =
                  Span.with_ "build" (fun _ ->
                      let t0 = now () in
                      let db =
                        Vp_storage.Database.build ~disk:D.sim_disk ~codec
                          (Workload.table w) source p
                      in
                      build_s := !build_s +. (now () -. t0);
                      db)
                in
                Span.with_ "scan" (fun _ ->
                    let t0 = now () in
                    let results, _ = Vp_storage.Database.run_workload db w' in
                    scan_s := !scan_s +. (now () -. t0);
                    List.iter
                      (fun (r : Vp_storage.Database.query_result) ->
                        blocks := !blocks + r.io.Vp_storage.Device.blocks_read;
                        decoded := !decoded + r.values_decoded)
                      results)
              end)
            sources)
        [ "Row"; "Column"; "HillClimb" ])
    [ Vp_storage.Codec.Varlen; Vp_storage.Codec.Dictionary ];
  {
    build_s = !build_s;
    scan_s = !scan_s;
    blocks_read = !blocks;
    values_decoded = !decoded;
    rows = !rows;
    gen_s = !gen_s;
  }

let traced () =
  let reference = reference () in
  (* Untraced, traced, untraced: the traced sweep sits between two
     untraced ones so a warming process does not favour either side. *)
  let sweep ~stats =
    ignore (setup ());
    if stats then Vp_observe.Switch.set Vp_observe.Switch.Stats;
    Atomic.set Span.enabled stats;
    Vp_observe.Stats.reset ();
    let wall, cells = round () in
    let snap = Vp_observe.Stats.snapshot () in
    let cache = Vp_parallel.Cost_cache.(stats global) in
    Atomic.set Span.enabled false;
    Vp_observe.Switch.set Vp_observe.Switch.Off;
    (wall, cells, snap, cache)
  in
  let w1, cells1, _, _ = sweep ~stats:false in
  let wt, cells_t, snap, cache = sweep ~stats:true in
  let w2, cells2, _, _ = sweep ~stats:false in
  let untraced = (w1 +. w2) /. 2.0 in
  let violations =
    List.concat_map (check_cells reference) [ cells1; cells_t; cells2 ]
  in
  Atomic.set Span.enabled true;
  let algos = algorithm_seconds () in
  let st = storage () in
  Atomic.set Span.enabled false;
  let c name = float_of_int (Vp_observe.Stats.counter_value snap name) in
  let cell_s id =
    let of_cells cells =
      (List.find (fun (x : Experiments.Sweep.cell) -> x.id = id) cells)
        .elapsed_seconds
    in
    (of_cells cells1 +. of_cells cells2) /. 2.0
  in
  let lookups = cache.hits + cache.misses in
  let table7 = cell_s "table7" in
  let metrics =
    [
      Report.metric "cost.query_costs" "count" (c "cost.query_costs")
        ~note:"Stats.snapshot over the traced sweep";
      Report.metric "cost.oracle_calls" "count" (c "cost.oracle_calls")
        ~note:"Stats.snapshot over the traced sweep";
      Report.metric "cost.cache_hit_rate" "ratio"
        (Stat.share ~part:(float_of_int cache.hits) ~whole:(float_of_int lookups))
        ~note:(Printf.sprintf "%d hits / %d lookups" cache.hits lookups);
      Report.metric "parallel.tasks_run" "count" (c "pool.tasks_run");
      Report.metric "parallel.tasks_stolen" "count" (c "pool.tasks_stolen");
      Report.metric "storage.build_s" "s" st.build_s
        ~note:"Database.build, table7 inputs, 2 codecs x 3 layouts";
      Report.metric "storage.scan_s" "s" st.scan_s ~note:"Database.run_workload";
      Report.metric "storage.blocks_read" "count" (float_of_int st.blocks_read);
      Report.metric "storage.values_decoded" "count"
        (float_of_int st.values_decoded);
      Report.metric "datagen.rows_per_s" "1/s"
        (Stat.share ~part:(float_of_int st.rows) ~whole:st.gen_s)
        ~note:(Printf.sprintf "%d rows in %.4f s" st.rows st.gen_s);
      Report.metric "experiments.table7_share" "ratio"
        (Stat.share ~part:table7 ~whole:untraced)
        ~note:(Printf.sprintf "table7 %.3f s / sweep wall %.3f s" table7 untraced);
      Report.metric "trace_overhead" "ratio"
        (Stat.overhead ~traced:wt ~untraced)
        ~note:(Printf.sprintf "traced %.3f s / mean untraced %.3f s" wt untraced);
    ]
    @ List.map
        (fun (x : Experiments.Sweep.cell) ->
          Report.metric
            (Printf.sprintf "experiments.%s_s" x.id)
            "s" (cell_s x.id) ~note:"mean of the two untraced sweeps")
        cells1
    @ List.map
        (fun (name, s) ->
          Report.metric (Printf.sprintf "algorithms.%s_s" name) "s" s
            ~note:"Partitioner.exec over the TPC-H line-up")
        algos
  in
  let all = cells1 @ cells_t @ cells2 in
  {
    Report.violations;
    attempted = List.length all;
    failed = failed_cells all;
    metrics;
    extra = [];
    facts = facts () @ [ ("sweeps", "untraced, traced (Stats on), untraced") ];
  }
