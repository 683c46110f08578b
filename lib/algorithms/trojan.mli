open Vp_core

(** Trojan layouts (Jindal, Quiané-Ruiz & Dittrich, SOCC 2011), adapted to
    the unified setting: single data replica and a single query group (the
    whole workload), as the paper prescribes for the comparison.

    The algorithm is threshold-pruning based:
    + enumerate all column groups (attribute subsets of size >= 2) and
      score each with an {e interestingness} measure: the average
      normalized mutual information between the members' access patterns
      ({!Mutual_information.normalized}) over all pairs of the group;
    + prune groups whose interestingness falls below the threshold (and,
      as a safety valve for very wide tables, keep at most
      [max_candidates] top groups);
    + merge the surviving groups into a complete and disjoint set of
      vertical partitions by solving a 0-1 knapsack-style exact cover
      ({!Knapsack}) that maximises the total pairwise mutual information
      captured inside partitions; uncovered attributes become singletons.

    Because the whole candidate space is generated before pruning, Trojan
    sees the global picture but pays for it with the highest optimization
    time of the six heuristics — exactly the trade-off the paper reports. *)

val algorithm : Partitioner.t
(** Trojan tuned by the cost model: runs the pipeline once per
    interestingness threshold in {1.0, 0.9, 0.7, 0.5, 0.3} and keeps the
    layout the oracle prices cheapest (the first on ties). Each column
    group is scored once per run; the thresholds share the scores. Under
    a limited or cancellable budget the row layout seeds the incumbent, so
    exhaustion still returns a valid layout. *)

val with_threshold : ?max_candidates:int -> float -> Partitioner.t
(** Trojan with an explicit pruning threshold in [[0, 1]] (ablation
    benchmark sweeps this). [max_candidates] (default 4096) bounds the
    number of groups fed to the exact-cover solver.
    @raise Invalid_argument if the threshold is outside [[0, 1]] or
    [max_candidates <= 0]. *)
