open Vp_core

(* Built once per search: everything but the blocks is hoisted out of the
   closure called at every node. *)
let per_query_bound ~seek_unit ~byte_rate workload =
  let table = Workload.table workload in
  let rows = float_of_int (Table.row_count table) in
  let queries =
    Array.map
      (fun q ->
        let refs = Query.references q in
        (Query.weight q, refs, float_of_int (Table.subset_size table refs)))
      (Workload.queries workload)
  in
  fun ~blocks ~remaining:_ ->
    Array.fold_left
      (fun acc (weight, refs, needed) ->
        let referenced_blocks =
          List.filter (fun b -> Attr_set.intersects b refs) blocks
        in
        let seeks = float_of_int (List.length referenced_blocks) in
        let colocated =
          List.fold_left
            (fun w b -> w + Table.subset_size table (Attr_set.diff b refs))
            0 referenced_blocks
        in
        let bytes = rows *. (needed +. float_of_int colocated) in
        acc +. (weight *. ((seek_unit *. seeks) +. (bytes /. byte_rate))))
      0.0 queries

let io_brute_force (disk : Disk.t) workload =
  per_query_bound ~seek_unit:disk.seek_time ~byte_rate:disk.read_bandwidth
    workload

let memory_brute_force (m : Memory_model.t) workload =
  per_query_bound ~seek_unit:0.0 ~byte_rate:m.bandwidth workload
