(** E16 — Table 7: TPC-H workload runtimes in a column-grouping DBMS under
    two compression schemes.

    The paper measured a commercial column store (DBMS-X). We substitute
    the storage simulator: generated TPC-H data (scaled down — the
    simulator materialises every block, and each table is generated once
    and reused by all six configurations) is loaded into Row, Column and
    HillClimb layouts under a variable-length codec (the "default
    LZO/delta" configuration) and a fixed-width dictionary codec, and the
    unmodified scan/projection workload is executed with full I/O + CPU
    accounting. Like the paper, query Q9 is excluded.

    The reproduced shape: Row slowest by far under both schemes; Column
    beats the HillClimb column grouping under varlen compression (variable
    stride makes in-group tuple reconstruction expensive) and the gap
    narrows under dictionary compression. *)

open Vp_core

let sim_sf = 0.005

let excluded_query = "Q9"

(* DBMS-X ran on a 16 GB machine against ~3 GB of compressed SF-10 data —
   effectively cache-resident, so seeks play almost no role and runtimes
   are dominated by scan bytes and decompression/reconstruction CPU. The
   simulated profile mirrors that: a buffer larger than the dataset and a
   near-zero (cached) seek cost. *)
let sim_disk =
  Vp_cost.Disk.make ~block_size:4096
    ~buffer_size:(Vp_cost.Disk.mb 64.0)
    ~seek_time:2e-5 ()

let layout_for name workload =
  let n = Table.attribute_count (Workload.table workload) in
  match name with
  | "Row" -> Partitioning.row n
  | "Column" -> Partitioning.column n
  | algo_name ->
      let a = Vp_algorithms.Registry.find algo_name in
      let oracle = Vp_cost.Io_model.oracle sim_disk workload in
      (Partitioner.exec a (Partitioner.Request.make ~cost:oracle workload)).Partitioner.Response.partitioning

let drop_excluded workload =
  Workload.make (Workload.table workload)
    (Array.to_list (Workload.queries workload)
    |> List.filter (fun q -> Query.name q <> excluded_query))

let codecs =
  [
    (Vp_storage.Codec.Varlen, "Default (varlen, LZO-like)");
    (Vp_storage.Codec.Dictionary, "Dictionary");
  ]

let layout_names = [ "Row"; "Column"; "HillClimb" ]

let table7 () =
  let gen = Vp_datagen.Rowgen.create () in
  (* One accumulator per configuration: a row per codec, a column per
     layout. *)
  let totals =
    List.map (fun _ -> Array.make (List.length layout_names) 0.0) codecs
  in
  (* Table-major: each table is generated and materialized once, and all
     six configurations run on those rows before the next table starts.
     Every accumulator still adds the tables in the same order, so the
     totals keep their float bits. The block-by-block scans stop at the
     cell's budget: once it is gone the remaining tables are skipped, so
     a deadlined table7 is a partial total over the same table prefix in
     every column (only the table the deadline falls in can be partial,
     as [run_workload] drops its remaining queries). *)
  List.iter
    (fun full ->
      let workload = drop_excluded full in
      if
        Workload.query_count workload > 0
        && not (Vp_robust.Budget.exhausted (Vp_robust.Budget.current ()))
      then begin
        let table = Workload.table workload in
        let source =
          Vp_stream.Source.of_rows table
            (Vp_stream.Source.materialize (Vp_stream.Source.of_rowgen gen table))
        in
        let layouts = List.map (fun name -> layout_for name full) layout_names in
        List.iter2
          (fun (codec, _) row ->
            List.iteri
              (fun j partitioning ->
                let db =
                  Vp_storage.Database.build ~disk:sim_disk ~codec table source
                    partitioning
                in
                let _, total = Vp_storage.Database.run_workload db workload in
                row.(j) <- row.(j) +. total)
              layouts)
          codecs totals
      end)
    (Vp_benchmarks.Tpch.workloads ~sf:sim_sf);
  let render v = Printf.sprintf "%.3f" v in
  let rows =
    List.map2
      (fun (_, label) row -> label :: List.map render (Array.to_list row))
      codecs totals
  in
  Vp_report.Ascii.table
    ~title:
      (Printf.sprintf
         "Table 7: Simulated TPC-H workload runtimes (s, SF %g, Q9 \
          excluded) per layout and compression scheme\n\
          (paper, DBMS-X @ SF 10: default LZO/delta Row 1652 / Column 377 / \
          HillClimb 450; dictionary Row 1265 / Column 511 / HillClimb 532)"
         sim_sf)
    ~headers:[ "Compression"; "Row"; "Column"; "HillClimb" ]
    rows
