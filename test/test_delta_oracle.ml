(* Differential and property tests for the delta sessions: the
   incremental cost-delta oracle (Vp_cost.Io_model.Incremental) and the
   full re-costing reference (Partitioner.Delta.full). The contract under
   test is exactness: every cost a delta session returns — for rebases and
   for merge/split/move peeks — must equal a from-scratch
   [Io_model.workload_cost] of the target partitioning TO THE LAST BIT, so
   all comparisons here are on [Int64.bits_of_float], never within an
   epsilon. *)

open Vp_core
module Inc = Vp_cost.Io_model.Incremental

let disk = Vp_cost.Disk.default

let full_cost w p = Vp_cost.Io_model.workload_cost disk w p

let bits = Int64.bits_of_float

let check_bits msg expected actual =
  Alcotest.(check int64) msg (bits expected) (bits actual)

(* --- seeded-random moves --------------------------------------------- *)

type move =
  | Merge of Attr_set.t * Attr_set.t
  | Split of Attr_set.t * Attr_set.t  (* group, proper nonempty subset *)
  | Move of int * Attr_set.t  (* attribute, destination group *)

let describe = function
  | Merge (a, b) ->
      Printf.sprintf "merge %s %s" (Attr_set.to_string a)
        (Attr_set.to_string b)
  | Split (g, sub) ->
      Printf.sprintf "split %s out of %s" (Attr_set.to_string sub)
        (Attr_set.to_string g)
  | Move (a, dst) ->
      Printf.sprintf "move %d into %s" a (Attr_set.to_string dst)

(* A random legal move on [p], or None if [p] admits none (single
   singleton group). [rand k] must return a uniform int in [0, k). *)
let random_move rand p =
  let groups = Partitioning.group_array p in
  let k = Array.length groups in
  let merge () =
    if k < 2 then None
    else
      let i = rand k in
      let j = (i + 1 + rand (k - 1)) mod k in
      Some (Merge (groups.(i), groups.(j)))
  in
  let split () =
    let wide =
      Array.to_list groups
      |> List.filter (fun g -> Attr_set.cardinal g >= 2)
    in
    match wide with
    | [] -> None
    | _ ->
        let g = List.nth wide (rand (List.length wide)) in
        let attrs = Attr_set.to_list g in
        (* A uniformly random proper nonempty subset: keep each attribute
           with probability 1/2, then repair the two illegal outcomes. *)
        let sub = List.filter (fun _ -> rand 2 = 0) attrs in
        let sub =
          match sub with
          | [] -> [ List.nth attrs (rand (List.length attrs)) ]
          | l when List.length l = List.length attrs -> List.tl l
          | l -> l
        in
        Some (Split (g, Attr_set.of_list sub))
  in
  let move () =
    if k < 2 then None
    else
      let attr = rand (Partitioning.attribute_count p) in
      let src = Partitioning.group_of p attr in
      let dsts =
        Array.to_list groups
        |> List.filter (fun g -> not (Attr_set.equal g src))
      in
      Some (Move (attr, List.nth dsts (rand (List.length dsts))))
  in
  match rand 3 with
  | 0 -> ( match merge () with Some m -> Some m | None -> split ())
  | 1 -> ( match split () with Some m -> Some m | None -> move ())
  | _ -> ( match move () with Some m -> Some m | None -> split ())

(* The target partitioning of a move, built WITHOUT the session — for
   moves, by editing the group list directly rather than through the
   split-then-merge composition [cost_move] uses internally. *)
let apply_move p = function
  | Merge (a, b) -> Partitioning.merge_groups p a b
  | Split (g, sub) -> Partitioning.split_group p g sub
  | Move (attr, dst) ->
      let groups =
        Partitioning.groups p
        |> List.filter_map (fun g ->
               if Attr_set.equal g dst then
                 Some (Attr_set.add attr g)
               else
                 let g' = Attr_set.remove attr g in
                 if Attr_set.is_empty g' then None else Some g')
      in
      Partitioning.of_groups ~n:(Partitioning.attribute_count p) groups

let peek_cost (s : Partitioner.Delta.session) = function
  | Merge (a, b) -> s.cost_merge a b
  | Split (g, sub) -> s.cost_split ~group:g ~sub
  | Move (attr, dst) -> s.cost_move ~attr ~dst

let peek_delta t = function
  | Merge (a, b) -> Inc.delta_merge t a b
  | Split (g, sub) -> Inc.delta_split t ~group:g ~sub
  | Move (attr, dst) -> Inc.delta_move t ~attr ~dst

let random_base rand w =
  Enumeration.random_partitioning rand
    (Table.attribute_count (Workload.table w))

(* The sessions under test, each built fresh for a workload: the
   incremental oracle, and the full re-costing session every request
   without a factory is priced by. *)
let subjects =
  [
    ("incremental", fun w -> Inc.factory disk w ());
    ("full", fun w -> Partitioner.Delta.full (Vp_cost.Io_model.oracle disk w) ());
  ]

(* --- the workload corpus --------------------------------------------- *)

let corpus () =
  let synth seed attributes queries =
    ( Printf.sprintf "synthetic-%Ld-%d" seed attributes,
      Vp_benchmarks.Synthetic.workload ~seed ~rows:50_000 ~attributes
        ~clusters:3 ~queries ~scatter:0.2 () )
  in
  List.map
    (fun w -> (Table.name (Workload.table w), w))
    (Vp_benchmarks.Tpch.workloads ~sf:1.0 @ Vp_benchmarks.Ssb.workloads ~sf:1.0)
  (* The 60-attribute input gives random bases of up to a dozen groups
     and queries spanning more than ten of them: memo keys longer than
     the ten values a polymorphic hash reads. *)
  @ [ synth 3L 10 14; synth 17L 14 20; synth 23L 7 9; synth 29L 60 30 ]

(* --- differential suite ---------------------------------------------- *)

(* For every session kind and workload: [bases] seeded-random base
   partitionings, each rebased into a fresh session and probed with
   [moves_per_base] random moves; every peeked cost and delta must match
   the full re-cost of the independently constructed target, bit for bit.
   Runs thousands of cases across TPC-H, SSB and the synthetic
   generator. *)
let test_differential () =
  List.iter
    (fun (kind, session) ->
      List.iter
        (fun (name, w) ->
          let state = Random.State.make [| 0x5eed; Hashtbl.hash name |] in
          let rand k = Random.State.int state k in
          for base_no = 1 to 40 do
            let p0 = random_base rand w in
            let s = session w in
            check_bits
              (Printf.sprintf "%s %s base %d: goto = full re-cost" kind name
                 base_no)
              (full_cost w p0) (s.Partitioner.Delta.goto p0);
            for _ = 1 to 4 do
              match random_move rand p0 with
              | None -> ()
              | Some m ->
                  let target = apply_move p0 m in
                  let full = full_cost w target in
                  let label =
                    Printf.sprintf "%s %s base %d: %s" kind name base_no
                      (describe m)
                  in
                  check_bits label full (peek_cost s m);
                  check_bits (label ^ " (delta)")
                    (full -. full_cost w p0)
                    (peek_cost s m -. s.base_cost ());
                  (* Peeks must not have moved the base. *)
                  check_bits (label ^ " (base intact)") (full_cost w p0)
                    (s.base_cost ())
            done
          done)
        (corpus ()))
    subjects

(* Rebasing mid-session (rather than into a fresh session) must recost
   only what changed yet return the same bits as a fresh full costing. *)
let test_goto_chain () =
  List.iter
    (fun (name, w) ->
      let state = Random.State.make [| 0xcafe; Hashtbl.hash name |] in
      let rand k = Random.State.int state k in
      let t = Inc.create disk w in
      let p = ref (random_base rand w) in
      ignore (Inc.goto t !p : float);
      for step = 1 to 25 do
        (match random_move rand !p with
        | Some m -> p := apply_move !p m
        | None -> p := random_base rand w);
        check_bits
          (Printf.sprintf "%s step %d: goto = full re-cost" name step)
          (full_cost w !p) (Inc.goto t !p)
      done)
    (corpus ())

(* --- degenerate moves ------------------------------------------------ *)

let test_degenerate () =
  let w = Testutil.partsupp_workload in
  let n = Table.attribute_count (Workload.table w) in
  List.iter
    (fun (kind, session) ->
      let msg m = kind ^ ": " ^ m in
      (* Moving the last attribute out of a singleton group empties the
         source: the result is exactly a merge of the two groups. *)
      let p =
        Partitioning.of_groups ~n
          [ Attr_set.singleton 0; Attr_set.of_list [ 1; 2; 3; 4 ] ]
      in
      let s : Partitioner.Delta.session = session w in
      ignore (s.goto p : float);
      let dst = Attr_set.of_list [ 1; 2; 3; 4 ] in
      check_bits
        (msg "singleton-source move = merge")
        (full_cost w (Partitioning.merge_groups p (Attr_set.singleton 0) dst))
        (s.cost_move ~attr:0 ~dst);
      (* Moving an attribute into its own group is a no-op: the exact base
         cost, and a delta of exactly +0.0. *)
      check_bits (msg "move into own group = base cost") (full_cost w p)
        (s.cost_move ~attr:2 ~dst);
      check_bits (msg "move into own group: delta = 0") 0.0
        (s.cost_move ~attr:2 ~dst -. s.base_cost ());
      (* Self-merge and whole-group splits are illegal exactly as they are
         for Partitioning itself. *)
      Alcotest.check_raises (msg "self-merge raises")
        (Invalid_argument "Partitioning.merge_groups: same group") (fun () ->
          ignore (s.cost_merge dst dst : float));
      Alcotest.check_raises
        (msg "splitting a whole group raises")
        (Invalid_argument "Partitioning.split_group: subset equals the group")
        (fun () -> ignore (s.cost_split ~group:dst ~sub:dst : float));
      Alcotest.check_raises
        (msg "splitting a singleton raises")
        (Invalid_argument "Partitioning.split_group: subset equals the group")
        (fun () ->
          ignore
            (s.cost_split ~group:(Attr_set.singleton 0)
               ~sub:(Attr_set.singleton 0)
              : float));
      Alcotest.check_raises (msg "empty split subset raises")
        (Invalid_argument "Partitioning.split_group: empty subset") (fun () ->
          ignore (s.cost_split ~group:dst ~sub:Attr_set.empty : float));
      (* Moving into a non-group is rejected. *)
      (match s.cost_move ~attr:0 ~dst:(Attr_set.of_list [ 1; 2 ]) with
      | exception Invalid_argument _ -> ()
      | c -> Alcotest.failf "%s: move into non-group returned %g" kind c);
      (* A split peeked on a two-attribute group leaves two singletons. *)
      let pair =
        Partitioning.of_groups ~n
          [ Attr_set.of_list [ 0; 1 ]; Attr_set.of_list [ 2; 3; 4 ] ]
      in
      ignore (s.goto pair : float);
      check_bits (msg "pair split = full re-cost")
        (full_cost w
           (Partitioning.split_group pair (Attr_set.of_list [ 0; 1 ])
              (Attr_set.singleton 0)))
        (s.cost_split ~group:(Attr_set.of_list [ 0; 1 ])
           ~sub:(Attr_set.singleton 0)))
    subjects

(* --- move algebra properties ----------------------------------------- *)

(* A move followed by its inverse restores the base cost bits exactly. *)
let test_move_inverse () =
  List.iter
    (fun (name, w) ->
      let state = Random.State.make [| 0x1234; Hashtbl.hash name |] in
      let rand k = Random.State.int state k in
      for case = 1 to 20 do
        let p0 = random_base rand w in
        match random_move rand p0 with
        | None -> ()
        | Some m ->
            let t = Inc.create disk w in
            let c0 = Inc.goto t p0 in
            let p1 = apply_move p0 m in
            ignore (Inc.goto t p1 : float);
            check_bits
              (Printf.sprintf "%s case %d: %s then back" name case
                 (describe m))
              c0 (Inc.goto t p0)
      done)
    (corpus ())

(* A random walk of rebases, each step's delta checked against the full
   re-cost difference, must end with the base cost equal to one full
   [workload_cost] of the final partitioning — exact equality, no
   epsilon, despite dozens of intermediate re-costings. *)
let test_random_walk () =
  List.iter
    (fun (name, w) ->
      let state = Random.State.make [| 0x9e37; Hashtbl.hash name |] in
      let rand k = Random.State.int state k in
      let t = Inc.create disk w in
      let p = ref (random_base rand w) in
      let c = ref (Inc.goto t !p) in
      for step = 1 to 60 do
        match random_move rand !p with
        | None -> ()
        | Some m ->
            let next = apply_move !p m in
            let full_next = full_cost w next in
            let delta = peek_delta t m in
            check_bits
              (Printf.sprintf "%s walk %d: delta = full difference" name step)
              (full_next -. !c) delta;
            p := next;
            c := Inc.goto t next
      done;
      check_bits
        (Printf.sprintf "%s: walk end = one full re-cost" name)
        (full_cost w !p) !c)
    (corpus ())

(* --- session closures & factory -------------------------------------- *)

let test_session_closures () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "partsupp" in
  let n = Table.attribute_count (Workload.table w) in
  let s = (Vp_cost.Io_model.Incremental.factory disk w) () in
  let p =
    Partitioning.of_groups ~n
      [ Attr_set.of_list [ 0; 1 ]; Attr_set.of_list [ 2; 3 ]; Attr_set.singleton 4 ]
  in
  check_bits "session goto" (full_cost w p) (s.Partitioner.Delta.goto p);
  check_bits "session base_cost" (full_cost w p)
    (s.Partitioner.Delta.base_cost ());
  check_bits "session cost_merge"
    (full_cost w
       (Partitioning.merge_groups p (Attr_set.of_list [ 0; 1 ])
          (Attr_set.singleton 4)))
    (s.Partitioner.Delta.cost_merge (Attr_set.of_list [ 0; 1 ])
       (Attr_set.singleton 4));
  check_bits "session cost_split"
    (full_cost w
       (Partitioning.split_group p (Attr_set.of_list [ 2; 3 ])
          (Attr_set.singleton 2)))
    (s.Partitioner.Delta.cost_split ~group:(Attr_set.of_list [ 2; 3 ])
       ~sub:(Attr_set.singleton 2));
  check_bits "session cost_move"
    (full_cost w
       (Partitioning.of_groups ~n
          [ Attr_set.singleton 0; Attr_set.of_list [ 1; 2; 3 ]; Attr_set.singleton 4 ]))
    (s.Partitioner.Delta.cost_move ~attr:1 ~dst:(Attr_set.of_list [ 2; 3 ]))

(* The full session prices each move with exactly one call of the
   request's oracle, and a [goto] to its current base is free. *)
let test_full_session_calls () =
  let w = Testutil.partsupp_workload in
  let n = Table.attribute_count (Workload.table w) in
  let calls = ref 0 in
  let oracle p =
    incr calls;
    full_cost w p
  in
  let s = Partitioner.Delta.full oracle () in
  Alcotest.check_raises "no base before the first goto"
    (Invalid_argument "Delta.full: no base yet (goto first)") (fun () ->
      ignore (s.Partitioner.Delta.base_cost () : float));
  let p =
    Partitioning.of_groups ~n
      [ Attr_set.of_list [ 0; 1 ]; Attr_set.of_list [ 2; 3 ]; Attr_set.singleton 4 ]
  in
  ignore (s.goto p : float);
  ignore (s.goto p : float);
  ignore (s.base_cost () : float);
  Alcotest.(check int) "goto to the base re-prices nothing" 1 !calls;
  ignore (s.cost_merge (Attr_set.of_list [ 0; 1 ]) (Attr_set.singleton 4) : float);
  ignore (s.cost_split ~group:(Attr_set.of_list [ 2; 3 ]) ~sub:(Attr_set.singleton 2) : float);
  ignore (s.cost_move ~attr:1 ~dst:(Attr_set.of_list [ 2; 3 ]) : float);
  Alcotest.(check int) "one oracle call per peek" 4 !calls;
  ignore (s.goto (Partitioning.column n) : float);
  Alcotest.(check int) "one oracle call per rebase" 5 !calls

(* --- the service pattern: one session, many rounds ------------------ *)

(* HillClimb over the TPC-H line-up [sweep_rounds] times — the service
   pattern, where the same workload is re-optimized again and again —
   with ONE persistent delta session per workload, supplied to every
   round's request, against requests without a factory (priced by
   [Delta.full], which has nothing to persist). Every round's layout and
   cost bits must be byte-identical, and the full path must do at least
   [min_query_cost_ratio] times as many per-query re-costs
   ([cost.query_costs]) as the delta path. *)
let sweep_rounds = 3

let min_query_cost_ratio = 5.0

let test_hillclimb_sweep_saves_recosts () =
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:Vp_experiments.Common.sf in
  let query_costs () =
    Vp_observe.Stats.counter_value (Vp_observe.Stats.snapshot ())
      "cost.query_costs"
  in
  let run_sweep ~with_delta =
    let prepared =
      List.map
        (fun w ->
          if with_delta then
            let s = Inc.create disk w in
            (w, Some (fun () -> Inc.session s))
          else (w, None))
        workloads
    in
    let qc0 = query_costs () in
    let outcomes =
      List.concat_map
        (fun _round ->
          List.map
            (fun (w, delta) ->
              let r =
                Partitioner.exec Vp_algorithms.Hillclimb.algorithm
                  (Partitioner.Request.make ?delta
                     ~cost:(Vp_cost.Io_model.oracle disk w) w)
              in
              ( Partitioning.to_string r.Partitioner.Response.partitioning,
                bits r.Partitioner.Response.cost ))
            prepared)
        (List.init sweep_rounds Fun.id)
    in
    (outcomes, query_costs () - qc0)
  in
  Vp_observe.Switch.(with_level Stats) (fun () ->
      let full, full_qc = run_sweep ~with_delta:false in
      let delta, delta_qc = run_sweep ~with_delta:true in
      Alcotest.(check (list (pair string int64)))
        "layouts and cost bits byte-identical" full delta;
      Alcotest.(check bool)
        (Printf.sprintf "full %d re-costs >= %.1fx delta %d" full_qc
           min_query_cost_ratio delta_qc)
        true
        (full_qc > 0
        && float_of_int full_qc
           >= min_query_cost_ratio *. float_of_int delta_qc))

(* --- qcheck: random workloads, random bases, random moves ------------ *)

let prop_random_workloads =
  QCheck2.Test.make ~name:"delta oracle exact on random workloads"
    ~count:150
    QCheck2.Gen.(
      let* w = Testutil.gen_workload 8 6 in
      let* p_seed = int in
      let* m_seed = small_nat in
      return (w, p_seed, m_seed))
    (fun (w, p_seed, m_seed) ->
      List.for_all
        (fun (_, session) ->
          let state = Random.State.make [| p_seed; m_seed |] in
          let rand k = Random.State.int state k in
          let p0 = random_base rand w in
          let s : Partitioner.Delta.session = session w in
          let c0 = s.goto p0 in
          bits c0 = bits (full_cost w p0)
          &&
          match random_move rand p0 with
          | None -> true
          | Some m ->
              let target = apply_move p0 m in
              bits (peek_cost s m) = bits (full_cost w target)
              && bits (s.goto target) = bits (full_cost w target))
        subjects)

let suite =
  [
    Alcotest.test_case "differential: peeks = full re-cost" `Quick
      test_differential;
    Alcotest.test_case "differential: goto chain = full re-cost" `Quick
      test_goto_chain;
    Alcotest.test_case "degenerate moves" `Quick test_degenerate;
    Alcotest.test_case "move + inverse restores cost bits" `Quick
      test_move_inverse;
    Alcotest.test_case "random walk ends at one full re-cost" `Quick
      test_random_walk;
    Alcotest.test_case "session closures mirror the module" `Quick
      test_session_closures;
    Alcotest.test_case "full session: one call per move" `Quick
      test_full_session_calls;
    Alcotest.test_case "TPC-H sweep: >= 5x fewer re-costs, same layouts"
      `Quick test_hillclimb_sweep_saves_recosts;
    Testutil.qtest prop_random_workloads;
  ]
