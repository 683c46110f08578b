(* Pins the benchmark's arithmetic: rank percentiles against a
   brute-force reference, the tail-rung choice, the layer-peel self
   times and the trace-overhead ratio. Exits non-zero on the first
   failed check. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

(* Definition, not algorithm: the smallest sample with at least
   ceil(q * n) samples at or below it — no sorting involved. *)
let reference samples q =
  let n = Array.length samples in
  let need = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  let at_or_below x =
    Array.fold_left (fun c y -> if y <= x then c + 1 else c) 0 samples
  in
  Array.fold_left
    (fun best x ->
      if at_or_below x >= need && (Float.is_nan best || x < best) then x
      else best)
    Float.nan samples

let test_percentile_vs_reference () =
  let rng = Random.State.make [| 11 |] in
  for trial = 1 to 400 do
    let n = 1 + Random.State.int rng 300 in
    (* Few distinct values on odd trials, so ties are exercised. *)
    let draw () =
      if trial mod 2 = 1 then float_of_int (Random.State.int rng 7)
      else Random.State.float rng 1000.0
    in
    let samples = Array.init n (fun _ -> draw ()) in
    List.iter
      (fun q ->
        let got = Stat.percentile samples q and want = reference samples q in
        check
          (Printf.sprintf "percentile trial %d n=%d q=%g: %g vs %g" trial n q
             got want)
          (got = want))
      [ 0.001; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1.0 ]
  done

let test_percentile_known () =
  let s = [| 5.; 1.; 4.; 2.; 3. |] in
  check "median of 1..5" (Stat.median s = 3.);
  check "p100 is max" (Stat.percentile s 1.0 = 5.);
  check "p20 is min" (Stat.percentile s 0.2 = 1.);
  check "median of 1..4 is the lower middle"
    (Stat.median [| 4.; 1.; 3.; 2. |] = 2.);
  check "input left unsorted" (s.(0) = 5.);
  check "q = 0 rejected"
    (match Stat.percentile s 0.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "empty rejected"
    (match Stat.median [||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_tail_q () =
  check "1000 samples -> p99" (Stat.tail_q 1000 = Some 0.99);
  check "999 samples -> p90" (Stat.tail_q 999 = Some 0.9);
  check "10000 samples -> p99, the top rung" (Stat.tail_q 10_000 = Some 0.99);
  check "52 samples -> p75" (Stat.tail_q 52 = Some 0.75);
  check "20 samples -> p50" (Stat.tail_q 20 = Some 0.5);
  check "19 samples -> none" (Stat.tail_q 19 = None);
  check "0 samples -> none" (Stat.tail_q 0 = None);
  List.iter
    (fun n ->
      match Stat.tail_q n with
      | None -> ()
      | Some q ->
          check
            (Printf.sprintf "tail of %d leaves >= 10 beyond" n)
            (Stat.beyond n q >= Stat.min_beyond))
    [ 20; 21; 99; 100; 101; 999; 1000; 1001; 12345 ]

let test_self_times () =
  let peels =
    [ ("router", 1.00); ("server", 0.70); ("sessions", 0.25); ("service", 0.05) ]
  in
  let self = Stat.self_times peels in
  let close a b = Float.abs (a -. b) < 1e-12 in
  check "self names kept in order" (List.map fst self = List.map fst peels);
  check "router self = cluster - daemon"
    (close (List.assoc "router" self) 0.30);
  check "server self = daemon - sessions"
    (close (List.assoc "server" self) 0.45);
  check "innermost keeps its median" (close (List.assoc "service" self) 0.05);
  check "self times telescope to the outermost median"
    (close (List.fold_left (fun a (_, v) -> a +. v) 0.0 self) 1.00);
  check "single peel" (Stat.self_times [ ("x", 2.0) ] = [ ("x", 2.0) ]);
  check "no peels" (Stat.self_times [] = [])

let test_overhead () =
  check "equal walls -> 1" (Stat.overhead ~traced:3.0 ~untraced:3.0 = 1.0);
  check "10% slower traced -> 1.1"
    (Float.abs (Stat.overhead ~traced:2.2 ~untraced:2.0 -. 1.1) < 1e-12);
  check "zero untraced rejected"
    (match Stat.overhead ~traced:1.0 ~untraced:0.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "share with base" (Stat.share ~part:1.0 ~whole:4.0 = 0.25);
  check "share of nothing" (Stat.share ~part:1.0 ~whole:0.0 = 0.0)

let () =
  test_percentile_vs_reference ();
  test_percentile_known ();
  test_tail_q ();
  test_self_times ();
  test_overhead ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
