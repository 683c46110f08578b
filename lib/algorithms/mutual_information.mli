open Vp_core

(** Mutual information between attribute access patterns — Trojan's
    "interestingness" measure for column groups.

    The workload induces, for each attribute, a binary random variable over
    the queries (weighted by query frequency): "does the query reference
    the attribute?". Mutual information between two such variables is high
    when the attributes tend to be referenced together (or avoided
    together), making them good column-group companions. *)

val entropy : Workload.t -> int -> float
(** Shannon entropy (in bits) of attribute [i]'s access indicator. Zero for
    attributes referenced by all queries or by none. *)

val mutual : Workload.t -> int -> int -> float
(** Mutual information (in bits) between the access indicators of two
    attributes. Symmetric, non-negative, and at most
    [min (entropy i) (entropy j)] up to rounding. *)

val normalized : Workload.t -> int -> int -> float
(** [mutual / min entropies], clamped to [[0, 1]], restricted to positive
    dependence: [1.0] for identical access signatures, [0.0] when the two
    indicators are anti- or un-correlated (mutual information alone would
    score complementary access patterns as highly as joint ones, which is
    useless for column grouping), and the normalized MI otherwise. *)
