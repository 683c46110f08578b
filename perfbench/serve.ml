(* The serve-drift workload.

   The serving path runs as child processes: [vp cluster] (a router plus
   two shard daemons, durable data dir, WAL fsync [never]). The load
   generator is this process: two client domains, one connection each,
   in a closed loop (a client sends its next frame only after the reply
   to the previous one). Frames are built before a round's clock starts,
   so the client pays only for transport and JSON. The CLI keeps the
   daemons' own counters on in every run; a traced run also starts them
   with VP_STATS=1.

   A traced run replays a fixed prefix of the same sessions, one client,
   sequentially, at successively deeper entry points — the cluster, one
   [vp serve], in-process [Sessions], in-process [Service] with a timed
   panel member — and reads each layer's self time as the difference of
   neighbouring peel medians. Single-client replay keeps queueing out of
   the peels, so the differences are service times. *)

open Vp_core
module Json = Vp_observe.Json
module Client = Vp_client.Client
module Protocol = Vp_server.Protocol
module Sessions = Vp_server.Sessions
module Service = Vp_online.Service
module Samples = Report.Samples

let clients = 2

let shards = 2

let fsync = "never"

(* The workload: deep sessions of a drifting 16-attribute stream (drift
   at half), a [layout] read every 8 ingests; re-optimizations fire and
   dominate the tail, the transport sets the median. One round of fixed
   work walks every stream once, so every round does the same work. *)
let streams_per_run = 16

let layout_every = 8

(* Sessions in the traced peel stream. *)
let peel_length = 8

let generate ~seed i =
  let seed = Int64.(add (mul (of_int seed) 1_000_003L) (of_int i)) in
  Vp_benchmarks.Synthetic.drift_workload ~seed ~rows:1_500_000 ~attributes:16
    ~clusters:4 ~queries:400 ~scatter:0.05 ~drift_at:0.5 ()

let open_frame ~session table =
  Protocol.open_request ~panel:[ "HillClimb" ] ~buffer_mb:1.0 ~session table

(* What the daemon decodes from a frame: the peels below the wire start
   from exactly the request the server would see. *)
let decode json =
  match
    Result.bind
      (Json.of_string (Json.to_string json))
      Protocol.request_of_json
  with
  | Ok r -> r
  | Error e -> failwith ("frame does not decode: " ^ e)

let open_spec table =
  match decode (open_frame ~session:"spec" table) with
  | Protocol.Open spec -> spec
  | _ -> assert false

(* The service config a session gets from its open spec, as the
   daemon's registry builds it; [wrap] instruments the panel. *)
let config_of_spec ?(wrap = Fun.id) (spec : Protocol.open_spec) =
  let panel =
    List.map (fun n -> wrap (Vp_algorithms.Registry.find n)) spec.panel
  in
  let disk =
    Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default
      (Vp_cost.Disk.mb spec.buffer_mb)
  in
  Service.default_config ~drift_ratio:spec.drift_ratio
    ~min_window:spec.min_window ~epoch:spec.epoch ~memory:spec.memory
    ~horizon:spec.horizon ?budget_steps:spec.budget_steps ~jobs:1 ~disk
    ~panel ()

type stream = { workload : Workload.t; expected : string }

(* Every served history must equal an in-process replay of its stream. *)
let stream_of workload =
  let config = config_of_spec (open_spec (Workload.table workload)) in
  { workload; expected = (Vp_online.Replay.run ~config workload).history }

type op = Open | Ingest | Layout | Close

let op_name = function
  | Open -> "open"
  | Ingest -> "ingest"
  | Layout -> "layout"
  | Close -> "close"

let ops = [ Open; Ingest; Layout; Close ]

let op_index = function Open -> 0 | Ingest -> 1 | Layout -> 2 | Close -> 3

type frame = { op : op; json : Json.t; query : Query.t option }

type session = { sname : string; stream : stream; frames : frame array }

let session stream sname =
  let table = Workload.table stream.workload in
  let frames =
    List.concat
      [
        [ { op = Open; json = open_frame ~session:sname table; query = None } ];
        List.concat
          (List.mapi
             (fun i q ->
               {
                 op = Ingest;
                 json =
                   Protocol.ingest_request ~seq:(i + 1) ~session:sname table q;
                 query = Some q;
               }
               ::
               (if (i + 1) mod layout_every = 0 then
                  [
                    {
                      op = Layout;
                      json = Protocol.layout_request ~session:sname;
                      query = None;
                    };
                  ]
                else []))
             (Array.to_list (Workload.queries stream.workload)));
        [ { op = Close; json = Protocol.close_request ~session:sname; query = None } ];
      ]
  in
  { sname; stream; frames = Array.of_list frames }

(* Per-client (or per-peel) outcome: raw latency samples per op kind. *)
type tally = {
  samples : Samples.t array;
  mutable failed : int;
  mutable violations : string list;
}

let tally () =
  { samples = Array.init 4 (fun _ -> Samples.create ()); failed = 0; violations = [] }

let violate t msg =
  if List.length t.violations < 20 then t.violations <- msg :: t.violations

let ok_count t = Array.fold_left (fun a s -> a + s.Samples.n) 0 t.samples

let all_samples ts =
  Samples.concat (List.concat_map (fun t -> Array.to_list t.samples) ts)

let kind_samples ts op =
  Samples.concat (List.map (fun t -> t.samples.(op_index op)) ts)

let check_history t s history =
  if not (String.equal history s.stream.expected) then
    violate t
      (Printf.sprintf "session %s: served history differs from replay" s.sname)

let now = Unix.gettimeofday

(* One client's closed loop over [sessions]. *)
let drive_wire client t sessions =
  Array.iter
    (fun s ->
      Span.with_ ("session " ^ s.sname) (fun parent ->
          Array.iter
            (fun f ->
              Span.with_ ~parent (op_name f.op) (fun _ ->
                  let t0 = now () in
                  match Client.request_retry client f.json with
                  | Ok reply when Protocol.reply_status reply = "ok" -> (
                      Samples.add t.samples.(op_index f.op) (now () -. t0);
                      match f.op with
                      | Close ->
                          check_history t s
                            (Option.value ~default:""
                               (Protocol.string_field "history" reply))
                      | _ -> ())
                  | Ok reply ->
                      t.failed <- t.failed + 1;
                      violate t
                        (Printf.sprintf "%s %s: %s" s.sname (op_name f.op)
                           (Option.value ~default:(Protocol.reply_status reply)
                              (Protocol.reply_error reply)))
                  | Error e ->
                      t.failed <- t.failed + 1;
                      violate t
                        (Printf.sprintf "%s %s: %s" s.sname (op_name f.op) e)))
            s.frames))
    sessions

(* --- the processes under test --- *)

let wait_ping port =
  let c = Client.create ~port () in
  let deadline = now () +. 60.0 in
  let rec go () =
    match Client.ping c with
    | Ok _ -> Client.close c
    | Error e ->
        if now () > deadline then failwith ("server never answered ping: " ^ e);
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let spawn_cluster ~vp ~env dir =
  Proc.mkdir_p dir;
  Proc.spawn ~env vp
    [ "cluster"; "-p"; "0"; "--shards"; string_of_int shards; "--data-dir";
      dir; "--fsync"; fsync ]

let spawn_serve ~vp ~env dir =
  Proc.mkdir_p dir;
  Proc.spawn ~env vp
    [ "serve"; "-p"; "0"; "--data-dir"; dir; "--fsync"; fsync ]

let rpc port json =
  let c = Client.create ~port () in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> Client.request_retry c json)

let counters port =
  match rpc port Protocol.stats with
  | Ok reply -> (
      match Json.member "counters" reply with
      | Some (Json.Obj kvs) ->
          List.filter_map
            (function k, Json.Int v -> Some (k, v) | _ -> None)
            kvs
      | _ -> [])
  | Error _ -> []

let counter cs name = Option.value (List.assoc_opt name cs) ~default:0

let shard_pids port =
  match rpc port (Json.Obj [ ("op", Json.String "cluster_info") ]) with
  | Ok reply -> (
      match Json.member "shards" reply with
      | Some (Json.List shards) ->
          List.filter_map (Protocol.int_field "pid") shards
      | _ -> [])
  | Error _ -> []

(* The cluster's ring, rebuilt from cluster_info: the same shard ids and
   replica count place a session name where the router places it. *)
let ring port =
  match rpc port (Json.Obj [ ("op", Json.String "cluster_info") ]) with
  | Ok reply -> (
      match (Json.member "shards" reply, Protocol.int_field "replicas" reply) with
      | Some (Json.List shards), Some replicas ->
          Vp_router.Ring.make ~replicas
            (List.filter_map (Protocol.string_field "id") shards)
      | _ -> failwith "cluster_info: no shards or replicas")
  | Error e -> failwith ("cluster_info: " ^ e)

(* Warm-up before any load: one session, alone, on each shard. Besides
   warming the connection and session paths, it makes each shard's
   first WAL append happen with no other request in flight. That append
   forces the CRC table ([Vp_robust.Crc32.table], a [lazy]); two
   connection workers of one shard forcing it at once fail one ingest
   with CamlinternalLazy.Undefined. The warm-up sessions are checked
   like every other one but are not part of any metric. *)
let warm_up streams port t =
  let ring = ring port in
  let c = Client.create ~port () in
  List.iter
    (fun id ->
      let rec name i =
        let n = Printf.sprintf "warm%d" i in
        if Vp_router.Ring.lookup ring n = id then n else name (i + 1)
      in
      drive_wire c t [| session streams.(0) (name 0) |])
    (Vp_router.Ring.members ring);
  Client.close c

(* Summed peak RSS (VmHWM) of the processes under test, MiB. *)
let peak_rss_mb pids =
  float_of_int (List.fold_left (fun a p -> a + Proc.vm_hwm_kib p) 0 pids)
  /. 1024.0

let stop_cluster (c : Proc.child) pids =
  Proc.stop c;
  Proc.await_gone pids

let session_files dir =
  Proc.files_with_ext dir [ ".meta"; ".wal"; ".snap" ]

(* --- inputs --- *)

let streams ~seed =
  Vp_parallel.Pool.run_list ~jobs:clients
    (List.init streams_per_run (fun i () -> stream_of (generate ~seed i)))
  |> Array.of_list

(* One round's sessions per client: every stream once, dealt
   round-robin to the clients. *)
let round_sessions streams ~round =
  Array.init clients (fun k ->
      Array.of_list
        (List.filteri (fun i _ -> i mod clients = k) (Array.to_list streams))
      |> Array.mapi (fun j stream ->
             session stream (Printf.sprintf "k%dr%ds%d" k round j)))

(* One round of fixed work: every client walks its sessions. Returns the
   round's wall time. *)
let round conns tallies sessions =
  let t0 = now () in
  let ds =
    Array.mapi
      (fun k c -> Domain.spawn (fun () -> drive_wire c tallies.(k) sessions.(k)))
      conns
  in
  Array.iter Domain.join ds;
  now () -. t0

let setups = 5

(* Spawns the cluster [setups] times, timing spawn-to-ping; keeps the
   last one running. *)
let setup_cluster ~vp ~env ~dir =
  let times = Samples.create () in
  let rec go i =
    let t0 = now () in
    let c = spawn_cluster ~vp ~env (Filename.concat dir (Printf.sprintf "cluster-%d" i)) in
    wait_ping c.Proc.port;
    Samples.add times (now () -. t0);
    if i + 1 < setups then begin
      stop_cluster c (shard_pids c.Proc.port);
      go (i + 1)
    end
    else (c, Filename.concat dir (Printf.sprintf "cluster-%d" i))
  in
  let c, cdir = go 0 in
  (c, cdir, Samples.to_array times)

let facts =
  [
    ("topology", Printf.sprintf "vp cluster: router + %d shards" shards);
    ("fsync", fsync ^ " (cluster and in-process Sessions)");
    ("clients", Printf.sprintf "%d closed-loop, one connection each" clients);
    ("sessions_per_round", Printf.sprintf "%d, one per stream" streams_per_run);
  ]

(* --- timed run --- *)

let timed ~vp ~dir ~seed ~seconds =
  let streams = streams ~seed in
  let cluster, cdir, setup_times =
    setup_cluster ~vp ~env:[ "VP_TRACE=0"; "VP_STATS=0" ] ~dir
  in
  let port = cluster.Proc.port in
  let pids = cluster.Proc.pid :: shard_pids port in
  let warm = tally () in
  warm_up streams port warm;
  let cs = Array.init clients (fun k -> Client.create ~port ~retry_seed:(Int64.of_int k) ()) in
  let tallies = Array.init clients (fun _ -> tally ()) in
  let walls = Samples.create () in
  let t_start = now () in
  let r = ref 0 in
  while Report.another_round ~start:t_start ~seconds walls do
    let sessions = round_sessions streams ~round:!r in
    Samples.add walls (round cs tallies sessions);
    incr r
  done;
  Array.iter Client.close cs;
  let cnt = counters port in
  let shed = counter cnt "router.shed" + counter cnt "server.shed" in
  let peak = peak_rss_mb pids in
  stop_cluster cluster (List.tl pids);
  let leftovers = session_files cdir in
  let ts = Array.to_list tallies in
  let ok = List.fold_left (fun a t -> a + ok_count t) 0 ts in
  let failed = List.fold_left (fun a t -> a + t.failed) 0 (warm :: ts) + shed in
  let busy = Array.fold_left ( +. ) 0.0 (Samples.to_array walls) in
  let violations =
    List.concat_map (fun t -> List.rev t.violations) (warm :: ts)
    @ List.map (fun f -> "session file left after close: " ^ f) leftovers
  in
  let walls = Samples.to_array walls in
  let metrics =
    [
      Report.metric "setup_s" "s" (Stat.median setup_times)
        ~note:(Printf.sprintf "median of %d spawn-to-ping" setups);
      Report.metric "wall_s" "s" (Stat.median walls)
        ~note:(Printf.sprintf "median of %d rounds" (Array.length walls));
      Report.metric "ops_per_s" "1/s" (float_of_int ok /. busy)
        ~note:(Printf.sprintf "%d requests in %.3f s" ok busy);
    ]
    @ Report.latency "op" (all_samples ts)
    @ [
        Report.metric "peak_rss_mb" "MiB" peak
          ~note:(Printf.sprintf "VmHWM summed over %d processes" (List.length pids));
      ]
  in
  let extra =
    List.concat_map
      (fun op ->
        let s = kind_samples ts op in
        if Array.length s = 0 then [] else Report.latency (op_name op) s)
      ops
    @ [
        Report.metric "fail_ratio" "ratio"
          (Stat.share ~part:(float_of_int failed)
             ~whole:(float_of_int (ok + failed)))
          ~note:(Printf.sprintf "%d failed or shed of %d" failed (ok + failed));
      ]
  in
  {
    Report.violations;
    attempted = ok + failed;
    failed;
    metrics;
    extra;
    facts = facts @ [ ("rounds", string_of_int (Array.length walls)) ];
  }

(* --- traced run: layer peel --- *)

let peel_sessions streams =
  Array.init peel_length (fun i ->
      session streams.(i mod Array.length streams) (Printf.sprintf "peel%d" i))

(* In-process [Sessions], the same decoded frames the daemon would see,
   same data dir layout and fsync policy. Also returns the data-dir
   bytes seen just before each close, per ingest. *)
let drive_sessions dir t sessions =
  let reg = Sessions.create ~data_dir:dir ~fsync:Vp_robust.Journal.Never () in
  let wal_bytes = ref 0 and ingests = ref 0 in
  Array.iter
    (fun s ->
      let decoded = Array.map (fun f -> (f, decode f.json)) s.frames in
      Span.with_ ("session " ^ s.sname) (fun parent ->
          Array.iter
            (fun (f, req) ->
              if f.op = Close then wal_bytes := !wal_bytes + Proc.dir_bytes dir;
              Span.with_ ~parent (op_name f.op) (fun _ ->
                  let t0 = now () in
                  let r =
                    match (req : Protocol.request) with
                    | Open spec ->
                        Result.map (fun _ -> "") (Sessions.open_session reg spec)
                    | Ingest { session; attributes; weight; name; seq; _ } ->
                        incr ingests;
                        Result.map
                          (fun _ -> "")
                          (Sessions.ingest reg session ?seq ~attributes ~weight
                             ?name ())
                    | Layout { session } ->
                        Sessions.view reg session (fun svc ->
                            ignore (Service.layout svc);
                            "")
                    | Close { session } -> Sessions.close reg session
                    | _ -> Error "unexpected frame"
                  in
                  let dt = now () -. t0 in
                  match r with
                  | Ok h ->
                      Samples.add t.samples.(op_index f.op) dt;
                      if f.op = Close then check_history t s h
                  | Error e ->
                      t.failed <- t.failed + 1;
                      violate t (Printf.sprintf "%s %s: %s" s.sname (op_name f.op) e)))
            decoded))
    sessions;
  Sessions.drain reg;
  (!wal_bytes, !ingests)

type service_peel = {
  ingest_plain : Samples.t;  (** [Service.ingest] calls that ran no re-opt. *)
  ingest_reopt : Samples.t;  (** Calls during which [Service.reopts] rose. *)
  exec : Samples.t;  (** The timed panel member's [Partitioner.exec]. *)
  mutable reopts : int;
  mutable adopted : int;
  mutable ingested : int;
}

(* In-process [Service], one per session, the panel member wrapped so
   its [exec] is timed — the innermost two peels. *)
let drive_service t sessions =
  let p =
    {
      ingest_plain = Samples.create ();
      ingest_reopt = Samples.create ();
      exec = Samples.create ();
      reopts = 0;
      adopted = 0;
      ingested = 0;
    }
  in
  let wrap (a : Partitioner.t) =
    {
      a with
      Partitioner.exec =
        (fun req ->
          Span.with_ ("exec " ^ a.name) (fun _ ->
              let t0 = now () in
              let r = a.exec req in
              Samples.add p.exec (now () -. t0);
              r));
    }
  in
  Array.iter
    (fun s ->
      let spec =
        match decode s.frames.(0).json with
        | Protocol.Open spec -> spec
        | _ -> failwith "session does not start with open"
      in
      let config = config_of_spec ~wrap spec in
      let svc = ref None in
      let get () = Option.get !svc in
      Span.with_ ("session " ^ s.sname) (fun parent ->
          Array.iter
            (fun f ->
              Span.with_ ~parent (op_name f.op) (fun _ ->
                  let record dt = Samples.add t.samples.(op_index f.op) dt in
                  match f.op with
                  | Open ->
                      let t0 = now () in
                      svc := Some (Service.create config spec.table);
                      record (now () -. t0)
                  | Ingest ->
                      let before = Service.reopts (get ()) in
                      let t0 = now () in
                      Service.ingest (get ()) (Option.get f.query);
                      let dt = now () -. t0 in
                      record dt;
                      Samples.add
                        (if Service.reopts (get ()) > before then p.ingest_reopt
                         else p.ingest_plain)
                        dt
                  | Layout ->
                      let t0 = now () in
                      ignore (Service.layout (get ()));
                      record (now () -. t0)
                  | Close ->
                      let t0 = now () in
                      let h = Service.history (get ()) in
                      record (now () -. t0);
                      check_history t s h;
                      p.reopts <- p.reopts + Service.reopts (get ());
                      p.adopted <- p.adopted + Service.adoptions (get ());
                      p.ingested <- p.ingested + Service.ingested (get ())))
            s.frames))
    sessions;
  p

let p50_ms samples =
  if Array.length samples = 0 then 0.0 else 1000.0 *. Stat.median samples

let sum a = Array.fold_left ( +. ) 0.0 a

let traced ~vp ~dir ~seed ~seconds =
  let streams = streams ~seed in
  let env = [ "VP_TRACE=0"; "VP_STATS=1" ] in
  let cluster, cdir, _ = setup_cluster ~vp ~env ~dir in
  let port = cluster.Proc.port in
  let pids = cluster.Proc.pid :: shard_pids port in
  let warm = tally () in
  warm_up streams port warm;
  (* Tracing overhead: the loaded workload in pairs of one untraced and
     one traced round over the same streams, which side goes first
     alternating, so drift in the host's load hits both alike. *)
  let cs = Array.init clients (fun k -> Client.create ~port ~retry_seed:(Int64.of_int k) ()) in
  let load = Array.init clients (fun _ -> tally ()) in
  let ratios = Samples.create () in
  let t_start = now () in
  let r = ref 0 in
  while !r < 4 || now () -. t_start < seconds /. 2.0 do
    let wall on =
      Atomic.set Span.enabled on;
      let w = round cs load (round_sessions streams ~round:!r) in
      incr r;
      w
    in
    let traced, untraced =
      if !r mod 4 = 0 then
        let u = wall false in
        (wall true, u)
      else
        let t = wall true in
        (t, wall false)
    in
    Samples.add ratios (Stat.overhead ~traced ~untraced)
  done;
  Array.iter Client.close cs;
  Atomic.set Span.enabled true;
  (* Peel 1: the cluster. *)
  let peel = peel_sessions streams in
  let t_cluster = tally () in
  let before = counters port in
  let c = Client.create ~port () in
  drive_wire c t_cluster peel;
  Client.close c;
  let after = counters port in
  let delta name = counter after name - counter before name in
  stop_cluster cluster (List.tl pids);
  let leftovers = session_files cdir in
  (* Peel 2: one daemon. *)
  let serve = spawn_serve ~vp ~env (Filename.concat dir "serve") in
  wait_ping serve.Proc.port;
  let t_serve = tally () in
  let c = Client.create ~port:serve.Proc.port () in
  drive_wire c t_serve peel;
  Client.close c;
  Proc.stop serve;
  (* Peels 3-5: in-process Sessions, Service, the panel member. *)
  let t_sessions = tally () in
  let wal_bytes, wal_ingests =
    drive_sessions (Filename.concat dir "sessions") t_sessions peel
  in
  let t_service = tally () in
  let sp = drive_service t_service peel in
  Atomic.set Span.enabled false;
  let tallies =
    [ [| warm |]; load; [| t_cluster |]; [| t_serve |]; [| t_sessions |]; [| t_service |] ]
  in
  let all = List.concat_map Array.to_list tallies in
  let medians =
    List.map
      (fun (layer, t) -> (layer, p50_ms (all_samples [ t ])))
      [
        ("router", t_cluster);
        ("server", t_serve);
        ("sessions", t_sessions);
        ("online", t_service);
      ]
  in
  let self = Stat.self_times medians in
  let sess op = p50_ms (kind_samples [ t_sessions ] op) in
  let ingest_time = sum (kind_samples [ t_service ] Ingest) in
  let exec = Samples.to_array sp.exec in
  let reopt = Samples.to_array sp.ingest_reopt in
  let pct q a = if Array.length a = 0 then 0.0 else 1000.0 *. Stat.percentile a q in
  let note_n a = Printf.sprintf "n=%d" (Array.length a) in
  let ratios = Samples.to_array ratios in
  let metrics =
    [
      Report.metric "router.relay_ms_p50" "ms" (List.assoc "router" self)
        ~note:"cluster peel p50 - daemon peel p50";
      Report.metric "router.forwards" "count"
        (float_of_int (delta "router.forwards"))
        ~note:(Printf.sprintf "over the cluster peel's %d requests"
                 (ok_count t_cluster));
      Report.metric "server.wire_ms_p50" "ms" (List.assoc "server" self)
        ~note:"daemon peel p50 - in-process Sessions peel p50";
      Report.metric "sessions.open_ms_p50" "ms" (sess Open);
      Report.metric "sessions.ingest_ms_p50" "ms" (sess Ingest);
      Report.metric "sessions.close_ms_p50" "ms" (sess Close);
      Report.metric "sessions.wal_bytes_per_ingest" "B"
        (Stat.share ~part:(float_of_int wal_bytes) ~whole:(float_of_int wal_ingests))
        ~note:(Printf.sprintf "%d data-dir bytes before close / %d ingests"
                 wal_bytes wal_ingests);
      Report.metric "online.ingest_ms_p50" "ms"
        (p50_ms (Samples.to_array sp.ingest_plain))
        ~note:("Service.ingest without re-opt, " ^ note_n (Samples.to_array sp.ingest_plain));
      Report.metric "online.reopt_ms_p50" "ms" (pct 0.5 reopt) ~note:(note_n reopt);
      Report.metric "online.reopt_ms_p90" "ms" (pct 0.9 reopt) ~note:(note_n reopt);
      Report.metric "online.reopts" "count" (float_of_int sp.reopts);
      Report.metric "online.adopted" "count" (float_of_int sp.adopted);
      Report.metric "online.reopt_share" "ratio"
        (Stat.share ~part:(float_of_int sp.reopts) ~whole:(float_of_int sp.ingested))
        ~note:(Printf.sprintf "%d re-opts / %d ingests" sp.reopts sp.ingested);
      Report.metric "algorithms.exec_ms_p50" "ms" (p50_ms exec) ~note:(note_n exec);
      Report.metric "algorithms.exec_share" "ratio"
        (Stat.share ~part:(sum exec) ~whole:ingest_time)
        ~note:(Printf.sprintf "%.4f s exec / %.4f s Service.ingest" (sum exec)
                 ingest_time);
      Report.metric "cost.query_costs" "count"
        (float_of_int (delta "cost.query_costs"))
        ~note:"fleet counter over the cluster peel";
      Report.metric "cost.oracle_calls" "count"
        (float_of_int (delta "cost.oracle_calls"))
        ~note:"fleet counter over the cluster peel";
      Report.metric "trace_overhead" "ratio"
        (Stat.median ratios)
        ~note:(Printf.sprintf "median over %d pairs of traced / untraced round"
                 (Array.length ratios));
    ]
  in
  let extra =
    List.map
      (fun (layer, m) ->
        Report.metric (layer ^ ".peel_ms_p50") "ms" m ~note:"peel median, all ops")
      medians
  in
  let ok = List.fold_left (fun a t -> a + ok_count t) 0 all in
  let failed = List.fold_left (fun a t -> a + t.failed) 0 all in
  {
    Report.violations =
      List.concat_map (fun t -> List.rev t.violations) all
      @ List.map (fun f -> "session file left after close: " ^ f) leftovers
      (* The workload is defined by the optimizer running. *)
      @ (if sp.reopts = 0 then [ "serve-drift ran no re-optimization" ] else []);
    attempted = ok + failed;
    failed;
    metrics;
    extra;
    facts =
      facts
      @ [
          ( "peel",
            Printf.sprintf "%d sessions, one client, sequential"
              (Array.length peel) );
          ("processes_env", "VP_STATS=1");
          ("spans", string_of_int (Span.count ()));
        ];
  }
