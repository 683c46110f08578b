open Vp_core

(* Per-run scoring shared by every threshold pass: the pairwise NMI matrix
   and [benefits.(mask)], filled by the first pass for the masks of >= 2
   bits below [Array.length benefits]; [scored] is set once that pass
   completes. The array covers every mask of a table of up to
   [max_scored_bits] attributes (8 MiB; the TPC-H and SSB tables have at
   most 17). A wider table, whose run a budget usually cuts short, re-scores
   the masks beyond it on every pass rather than allocate 2^n floats up
   front (8 GiB at 30 attributes). *)
type scores = {
  n : int;
  nmi : float array array;
  benefits : float array;
  mutable scored : bool;
}

let max_scored_bits = 20

let scores workload =
  let n = Table.attribute_count (Workload.table workload) in
  let nmi = Array.make_matrix n n 0.0 in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      let v = Mutual_information.normalized workload i j in
      nmi.(i).(j) <- v;
      nmi.(j).(i) <- v
    done
  done;
  let benefits = Array.create_float (1 lsl (min n max_scored_bits)) in
  { n; nmi; benefits; scored = false }

let run ?(budget = Vp_robust.Budget.unlimited) ~threshold ~max_candidates
    scores oracle =
  let { n; nmi; benefits; scored } = scores in
  let stored = Array.length benefits in
  let bits = Array.make n 0 in
  (* Enumerate all column groups of size >= 2 and keep the interesting
     ones. A group's benefit is the total pairwise NMI captured inside it
     (additive across disjoint groups, so the exact cover maximises the
     NMI kept within partitions), summed i ascending, then j ascending
     over the members above i; interestingness = benefit / #pairs. *)
  let interesting = ref [] in
  let count = ref 0 in
  for mask = 1 to (1 lsl n) - 1 do
    Vp_robust.Budget.tick budget;
    let group = Attr_set.of_mask mask in
    let k = Attr_set.cardinal group in
    if k >= 2 then begin
      Partitioner.Counted.note_candidate oracle;
      let benefit =
        if scored && mask < stored then benefits.(mask)
        else begin
          let m = ref 0 in
          for i = 0 to n - 1 do
            if mask land (1 lsl i) <> 0 then begin
              bits.(!m) <- i;
              incr m
            end
          done;
          let total = ref 0.0 in
          for a = 0 to k - 2 do
            let row = nmi.(bits.(a)) in
            for b = a + 1 to k - 1 do
              total := !total +. row.(bits.(b))
            done
          done;
          if mask < stored then benefits.(mask) <- !total;
          !total
        end
      in
      if benefit /. float_of_int (k * (k - 1) / 2) >= threshold then begin
        incr count;
        interesting := { Knapsack.group; benefit } :: !interesting
      end
    end
  done;
  scores.scored <- true;
  let candidates =
    if !count <= max_candidates then !interesting
    else begin
      let sorted =
        List.stable_sort
          (fun a b -> compare b.Knapsack.benefit a.Knapsack.benefit)
          !interesting
      in
      List.filteri (fun i _ -> i < max_candidates) sorted
    end
  in
  let groups, _benefit = Knapsack.solve ~n candidates in
  (Partitioning.of_groups ~n groups, 1)

let with_threshold ?(max_candidates = 4096) threshold =
  if threshold < 0.0 || threshold > 1.0 then
    invalid_arg "Trojan.with_threshold: threshold outside [0, 1]";
  if max_candidates <= 0 then
    invalid_arg "Trojan.with_threshold: max_candidates <= 0";
  Partitioner.timed_run_budgeted
    ~name:(Printf.sprintf "Trojan(t=%.2f)" threshold)
    ~short_name:"Tr"
    (fun ~budget workload oracle ->
      let scores = scores workload in
      if not (Vp_robust.Budget.is_limited budget) then
        run ~threshold ~max_candidates scores oracle
      else begin
        (* Trojan's group enumeration has no usable intermediate state, so
           the budgeted fallback is the row layout: price it before any
           tick, and keep the knapsack solution only if the run completes
           and beats it. *)
        let row = Partitioning.row scores.n in
        let row_cost = Partitioner.Counted.cost oracle row in
        match run ~budget ~threshold ~max_candidates scores oracle with
        | p, iterations -> (
            (* Pricing the knapsack solution is a budget step too; the
               tick and the evaluation sit in the scrutinee so that
               exhaustion here is caught (an [exception] pattern does not
               cover raises in an arm body). *)
            match
              Vp_robust.Budget.tick budget;
              Partitioner.Counted.cost oracle p
            with
            | cost when cost < row_cost -> (p, iterations)
            | _ -> (row, iterations)
            | exception Vp_robust.Budget.Exhausted -> (row, iterations))
        | exception Vp_robust.Budget.Exhausted -> (row, 0)
      end)

(* The default Trojan tunes its pruning threshold with the cost model: the
   candidate generation + knapsack pipeline runs once per threshold and the
   cheapest complete solution wins. This mirrors how the Trojan paper picks
   its final layout among interesting-group packings and keeps the
   algorithm threshold-pruning based. Every pass still walks the whole
   column-group space, one budget tick per group, but the groups are
   scored once per run: the first pass fills [benefits] and the later ones
   only re-apply their threshold. Trojan stays the slowest of the six
   heuristics. *)
let default_thresholds = [ 1.0; 0.9; 0.7; 0.5; 0.3 ]

let algorithm =
  Partitioner.timed_run_budgeted ~name:"Trojan" ~short_name:"Tr"
    (fun ~budget workload oracle ->
      let scores = scores workload in
      let best = ref None in
      (* Under a budget — or any cancellable one, which can exhaust at its
         very first tick — seed the incumbent with the row layout (priced
         before any tick) so exhaustion mid-threshold still leaves a valid
         answer; thresholds complete in a deterministic order, so a larger
         budget only ever adds candidates to the min. *)
      if
        Vp_robust.Budget.is_limited budget
        || Vp_robust.Budget.cancellable budget
      then begin
        let row = Partitioning.row scores.n in
        best := Some (row, Partitioner.Counted.cost oracle row)
      end;
      (try
         List.iter
           (fun threshold ->
             let p, _ =
               run ~budget ~threshold ~max_candidates:4096 scores oracle
             in
             (* Charge the per-threshold pricing like any other cost
                probe; the surrounding [try] keeps the incumbent on
                exhaustion. *)
             Vp_robust.Budget.tick budget;
             let cost = Partitioner.Counted.cost oracle p in
             match !best with
             | Some (_, c) when c <= cost -> ()
             | _ -> best := Some (p, cost))
           default_thresholds
       with Vp_robust.Budget.Exhausted -> ());
      match !best with
      | Some (p, _) -> (p, List.length default_thresholds)
      | None -> assert false)
