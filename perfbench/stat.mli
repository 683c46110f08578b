(** Rank percentiles, tail choice, layer-peel arithmetic and ratios. *)

val sorted : float array -> float array
(** An ascending copy. *)

val rank : int -> float -> int
(** [rank n q]: the 1-based nearest rank [ceil (q * n)], clamped to
    [1 .. n].
    @raise Invalid_argument if [n = 0] or [q] is outside [(0, 1]]. *)

val at : sorted:float array -> float -> float
(** The [q] percentile of an already sorted array. *)

val percentile : float array -> float -> float
(** The [q] percentile by rank of raw samples (sorts a copy). *)

val median : float array -> float

val ladder : float list
(** Percentiles a tail may be reported at, highest first. *)

val min_beyond : int
(** Samples a reported tail must leave above its rank (10). *)

val beyond : int -> float -> int
(** Samples strictly above the rank of [q] among [n]. *)

val tail_q : int -> float option
(** The highest {!ladder} percentile with at least {!min_beyond}
    samples beyond it, if any. *)

val self_times : (string * float) list -> (string * float) list
(** Per-layer self time from peel medians, outermost first: each peel's
    median minus the next-deeper one's; the innermost keeps its own. *)

val overhead : traced:float -> untraced:float -> float
(** [traced / untraced].
    @raise Invalid_argument if [untraced <= 0]. *)

val share : part:float -> whole:float -> float
(** [part / whole], or [0.] when [whole <= 0]. *)
