(* The repository's benchmark.

     perfbench/run.sh --workload serve-drift|sweep
                      --seed N --seconds S --trace 0|1

   Run from the repository root. Workloads (why each, see BENCHMARK.json):
   serve-drift drives a [vp cluster] child from two closed-loop clients
   (Serve); sweep runs the experiment catalogue in-process (Sweep_wl).
   Inputs come from the seed alone.

   With [--trace 0] the run measures for the given seconds, untraced,
   and reports the end-to-end metrics; with [--trace 1]
   it reports the per-layer metrics instead (layer peel, counters, timed
   probes, tracing overhead) and writes its spans to
   [.perfbench/<workload>-seed<N>-spans.jsonl]. Every run writes a detail
   file beside it (host facts, sample counts, every metric) and prints a
   table, then, as its last line, the JSON result. Any correctness
   violation prints [correct: false] and exits 1. *)

let out_dir = ".perfbench"

(* The CLI under test, as run.sh builds it. *)
let vp = "_build/default/bin/main.exe"

let usage () =
  prerr_endline
    "usage: perfbench --workload serve-drift|sweep --seed N \
     --seconds S --trace 0|1";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse () =
  let a = ref { workload = ""; seed = 0; seconds = 10.0; trace = false } in
  let int v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int v }; go rest
    | "--seconds" :: v :: rest ->
        a := { !a with seconds = float_of_int (int v) }; go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        a := { !a with trace = v = "1" }; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !a.seconds < 1.0 then usage ();
  !a

(* The metric slots this run must fill, by name with unit, from
   BENCHMARK.json, so the printed result always matches the manifest. *)
let declared section =
  match Vp_observe.Json.of_file "BENCHMARK.json" with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok doc -> (
      match Vp_observe.Json.member section doc with
      | Some (Vp_observe.Json.List ms) ->
          List.map
            (fun m ->
              match
                ( Vp_observe.Json.member "name" m,
                  Vp_observe.Json.member "unit" m )
              with
              | Some (String n), Some (String u) -> (n, u)
              | _ -> failwith ("BENCHMARK.json: malformed " ^ section))
            ms
      | _ -> failwith ("BENCHMARK.json: no " ^ section))

(* Commit from the checkout's git metadata when there is any; the
   source digest identifies the code either way. *)
let commit () =
  let read p = String.trim (Proc.read_file p) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "none (not a git checkout)"
  | head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          try read (Filename.concat ".git" r) with Sys_error _ -> head)
      | _ -> head)

let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  files "lib" @ files "bin"
  |> List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let () =
  let a = parse () in
  let kind =
    match a.workload with
    | "serve-drift" -> `Serve
    | "sweep" -> `Sweep
    | _ -> usage ()
  in
  let slots = declared (if a.trace then "per_layer" else "end_to_end") in
  Proc.mkdir_p out_dir;
  let run_dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Proc.rm_rf run_dir;
  Proc.mkdir_p run_dir;
  let load_start = Proc.loadavg () in
  let r =
    match (kind, a.trace) with
    | `Serve, false ->
        Serve.timed ~vp ~dir:run_dir ~seed:a.seed ~seconds:a.seconds
    | `Serve, true ->
        Serve.traced ~vp ~dir:run_dir ~seed:a.seed ~seconds:a.seconds
    | `Sweep, false -> Sweep_wl.timed ~seconds:a.seconds
    | `Sweep, true -> Sweep_wl.traced ()
  in
  Proc.rm_rf run_dir;
  let facts =
    [
      ("workload", a.workload);
      ("seed", string_of_int a.seed);
      ("seconds", Printf.sprintf "%g" a.seconds);
      ("trace", string_of_bool a.trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("loadavg_start", load_start);
      ("loadavg_end", Proc.loadavg ());
      ("ocaml", Sys.ocaml_version);
      ("commit", commit ());
      ("source_digest", source_digest ());
    ]
    @ r.Report.facts
  in
  let produced = r.metrics in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (m : Report.metric) -> m.name = name) produced with
        | Some m when m.unit_ <> unit_ ->
            problem "%s in %s, declared %s" name m.unit_ unit_;
            m
        | Some m when not (Float.is_finite m.value) ->
            problem "%s is not a finite number" name;
            { m with value = 0.0 }
        | Some m -> m
        | None when a.trace ->
            (* A layer this workload does not exercise did no work. *)
            Report.metric name unit_ 0.0 ~note:"not exercised by this workload"
        | None ->
            problem "%s not produced" name;
            Report.metric name unit_ 0.0)
      slots
  in
  let violations = r.violations @ List.rev !problems in
  let r = { r with Report.violations; facts } in
  List.iter (fun (k, v) -> Printf.printf "%-30s %s\n" k v) facts;
  Report.print_table
    (if a.trace then "per-layer metrics" else "end-to-end metrics")
    metrics;
  if r.extra <> [] then Report.print_table "also measured (not gated)" r.extra;
  List.iter (fun v -> Printf.printf "VIOLATION %s\n" v) violations;
  let stem =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-trace%d" a.workload a.seed
         (if a.trace then 1 else 0))
  in
  Report.write_detail (stem ^ ".json") r;
  if a.trace then
    Span.write
      (Filename.concat out_dir
         (Printf.sprintf "%s-seed%d-spans.jsonl" a.workload a.seed));
  let correct = violations = [] in
  print_endline
    (Report.result_line ~correct ~attempted:r.attempted ~failed:r.failed metrics);
  exit (if correct then 0 else 1)
