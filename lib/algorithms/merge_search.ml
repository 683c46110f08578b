open Vp_core

type merge = {
  merged : Partitioning.t;
  merged_cost : float;
  group_a : Attr_set.t;
  group_b : Attr_set.t;
}

let best_pair_merge ?(allowed = fun _ _ -> true) ~delta
    ?(budget = Vp_robust.Budget.unlimited) ~n oracle groups =
  let arr = Array.of_list groups in
  let k = Array.length arr in
  if k < 2 then None
  else begin
    (* Rebase the session at the scanned partitioning: the previous scan
       only peeked, so the session still sits where the last [goto] left
       it. Rebasing to the current base is free. *)
    let scanned = Partitioning.of_groups ~n groups in
    ignore (delta.Partitioner.Delta.goto scanned : float);
    let best = ref None in
    for i = 0 to k - 2 do
      for j = i + 1 to k - 1 do
        if allowed arr.(i) arr.(j) then begin
          Vp_robust.Budget.tick budget;
          let cost =
            Partitioner.Counted.probe oracle (fun () ->
                delta.Partitioner.Delta.cost_merge arr.(i) arr.(j))
          in
          match !best with
          | Some (_, _, c) when c <= cost -> ()
          | _ -> best := Some (i, j, cost)
        end
      done
    done;
    Option.map
      (fun (i, j, cost) ->
        {
          merged = Partitioning.merge_groups scanned arr.(i) arr.(j);
          merged_cost = cost;
          group_a = arr.(i);
          group_b = arr.(j);
        })
      !best
  end

let climb ?(allowed = fun _ _ -> true) ~delta
    ?(budget = Vp_robust.Budget.unlimited) ~n oracle groups =
  (* A partially scanned neighbourhood may miss the best merge, so on
     exhaustion we abandon the interrupted scan and return the incumbent:
     each committed merge was strictly cheaper, keeping the best-so-far
     cost monotone in the budget. *)
  let rec go groups current current_cost iterations =
    match best_pair_merge ~allowed ~delta ~budget ~n oracle groups with
    | Some m when m.merged_cost < current_cost ->
        go (Partitioning.groups m.merged) m.merged m.merged_cost (iterations + 1)
    | Some _ | None -> (current, iterations)
    | exception Vp_robust.Budget.Exhausted -> (current, iterations)
  in
  let start = Partitioning.of_groups ~n groups in
  if Vp_robust.Budget.exhausted budget then (start, 0)
  else
    let start_cost =
      Partitioner.Counted.probe oracle (fun () ->
          delta.Partitioner.Delta.goto start)
    in
    go groups start start_cost 0
