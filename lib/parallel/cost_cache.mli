(** Memoized cost evaluation, one entry per query.

    Experiments and the CLI evaluate the same I/O cost formula over and
    over, and the unit that actually repeats is a query reading a given
    set of partitions: candidate partitionings that differ elsewhere, and
    workloads that re-pose the same query, share it. A [Cost_cache.t]
    memoizes {!Vp_cost.Io_model} per-query costs keyed on the disk profile
    and table schema ({!context_fingerprint}), the query footprint and the
    referenced partitions, with hit/miss counters.

    Caching never changes a result: a cached entry is exactly the float the
    cost model returned, so searches take identical trajectories with the
    cache on or off — only faster. All operations are domain-safe.
    Searches keep no memo of their own: they price candidates through a
    delta session ({!Vp_core.Partitioner.Delta}), whose incremental form
    has its own per-query memo. *)

type t

val create : unit -> t
(** A fresh, empty cache. *)

val global : t
(** The process-wide cache shared by the experiment layer and the CLI. *)

type stats = { hits : int; misses : int; entries : int }

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)], or 0 when there were no lookups. *)

val clear : t -> unit
(** Drops all entries and resets the counters. *)

val context_fingerprint : Vp_cost.Disk.t -> Vp_core.Table.t -> string
(** A digest of the disk profile and table schema — everything a
    {e per-query} cost depends on besides the partitions the query reads.
    Keys built from it stay valid across workloads over the same table. *)

val query_oracle : ?cache:t -> Vp_cost.Disk.t -> Vp_core.Workload.t ->
  Vp_core.Partitioner.cost_fn
(** A memoized {!Vp_cost.Io_model.oracle}, {e per query}: one entry per
    (disk + table, query footprint, referenced partitions), in [cache]
    (default {!global}). A query's cost only depends on the partitions it
    reads, so entries are shared between candidate partitionings that
    differ elsewhere, and between workloads that repeat a query — which
    is where search loops actually repeat work. Returns
    bit-identical results to {!Vp_cost.Io_model.workload_cost} (same
    accumulation order). One cache lookup per query per evaluation. *)
