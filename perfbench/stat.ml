(* The benchmark's arithmetic, kept free of I/O so its tests can pin it.

   Percentiles are by rank over raw samples (nearest-rank: the smallest
   sample with at least [ceil (q * n)] samples at or below it), never
   interpolated and never bucketed. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let rank n q =
  if n = 0 then invalid_arg "Stat.rank: no samples";
  if not (q > 0.0 && q <= 1.0) then invalid_arg "Stat.rank: q outside (0, 1]";
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  max 1 (min n r)

let at ~sorted q = sorted.(rank (Array.length sorted) q - 1)

let percentile samples q = at ~sorted:(sorted samples) q

let median samples = percentile samples 0.5

(* The percentile ladder a tail is reported on: the highest rung that
   leaves at least [min_beyond] samples strictly above its rank. It
   stops at p99: a run holds some 10^4 requests, and a p99.9 set by a
   dozen of them moves too much from run to run to gate on. *)
let ladder = [ 0.99; 0.9; 0.75; 0.5 ]

let min_beyond = 10

let beyond n q = n - rank n q

let tail_q n =
  List.find_opt (fun q -> n > 0 && beyond n q >= min_beyond) ladder

(* Layer peel: the same op stream replayed at successively deeper entry
   points, outermost first. A layer's self time is its peel's median
   minus the next-deeper peel's; the innermost keeps its whole median.
   The self times therefore telescope back to the outermost median. *)
let self_times peels =
  let rec go = function
    | [] -> []
    | [ (name, m) ] -> [ (name, m) ]
    | (name, m) :: ((_, inner) :: _ as rest) -> (name, m -. inner) :: go rest
  in
  go peels

(* Traced over untraced wall time of the same fixed work: 1.0 means the
   tracing cost nothing. *)
let overhead ~traced ~untraced =
  if not (untraced > 0.0) then invalid_arg "Stat.overhead: untraced <= 0";
  traced /. untraced

let share ~part ~whole = if whole > 0.0 then part /. whole else 0.0
