(** HillClimb (Hankins & Patel, "Data Morphing", VLDB 2003), as adapted by
    the paper: a bottom-up algorithm that starts from column layout and in
    each iteration merges the two partitions whose union yields the best
    improvement in expected workload cost, stopping when no merge improves.

    The paper notes that the original algorithm precomputes a dictionary of
    all column-group costs, which grows to gigabytes for wide tables, and
    that dropping the dictionary dramatically improves the runtime. The
    default {!algorithm} is the improved version: it keeps no memo of its
    own and prices each candidate merge with one probe of the request's
    delta session ({!Vp_core.Partitioner.Delta}). Each iteration's
    candidates have one group fewer than the last iteration's, so a climb
    never prices the same layout twice and a per-run memo of whole
    partitionings would never hit. *)

val algorithm : Vp_core.Partitioner.t
(** HillClimb pricing candidates through the request's delta session
    (the default). *)

val with_dictionary : Vp_core.Partitioner.t
(** Original HillClimb: memoises candidate partitioning costs in a
    dictionary keyed by the partitioning and re-costs every candidate in
    full. Finds the same layouts; kept as an independent implementation
    to cross-check {!algorithm} and for ablation A1. *)
