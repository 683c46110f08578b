(* The layout server: wire protocol, concurrency, backpressure and the
   session determinism contract.

   The acceptance test here is [concurrent sessions deterministic]: K
   concurrent clients replaying interleaved query streams into their own
   sessions must each end with a decision history byte-identical to a
   sequential in-process [Vp_online.Replay] of the same stream — for
   server --jobs 1 and 4, with tracing off and on. The fuzz test feeds
   the daemon truncated, malformed and oversized frames plus mid-request
   disconnects and requires clean [error] replies on a still-live
   connection, never a dropped daemon or a leaked session. *)

open Vp_core
module Json = Vp_observe.Json
module Protocol = Vp_server.Protocol
module Client = Vp_client.Client

(* Daemons bind port 0 and report the bound port — see the port
   discipline note in [Testutil]. *)
let with_daemon = Testutil.with_daemon

let with_client = Testutil.with_client

let unwrap = Testutil.unwrap

let contains = Testutil.contains

let small_workload =
  lazy
    (Vp_benchmarks.Synthetic.workload ~seed:3L ~rows:100_000 ~attributes:8
       ~clusters:3 ~queries:12 ~scatter:0.1 ())

(* --- basics --- *)

let test_ping_stats () =
  with_daemon (fun port ->
      with_client port (fun c ->
          Alcotest.(check int)
            "protocol version" Protocol.protocol_version
            (unwrap (Client.ping c));
          let stats = unwrap (Client.server_stats c) in
          Alcotest.(check string) "ok" "ok" (Protocol.reply_status stats);
          Alcotest.(check (option int))
            "no sessions" (Some 0)
            (Protocol.int_field "sessions" stats)))

let test_partition_matches_local () =
  let w = Lazy.force small_workload in
  let disk = Vp_cost.Disk.default in
  let oracle = Vp_cost.Io_model.oracle disk w in
  let local =
    Partitioner.exec Vp_algorithms.Hillclimb.algorithm
      (Partitioner.Request.make ~cost:oracle w)
  in
  with_daemon (fun port ->
      with_client port (fun c ->
          let reply =
            unwrap (Client.partition ~algorithm:"HillClimb" ~buffer_mb:8.0 c w)
          in
          (match Protocol.float_field "cost" reply with
          | Some cost ->
              Alcotest.(check (float 1e-6))
                "cost matches local exec" local.Partitioner.Response.cost cost
          | None -> Alcotest.fail "reply has no cost");
          let expected_layout =
            Json.to_string
              (Protocol.layout_to_json (Workload.table w)
                 local.Partitioner.Response.partitioning)
          in
          (match Json.member "layout" reply with
          | Some l ->
              Alcotest.(check string)
                "layout matches local exec" expected_layout (Json.to_string l)
          | None -> Alcotest.fail "reply has no layout");
          Alcotest.(check (option string))
            "status complete" (Some "complete")
            (Protocol.string_field "run_status" reply)))

let test_budget_degrades () =
  let w = Lazy.force small_workload in
  with_daemon (fun port ->
      with_client port (fun c ->
          let reply =
            unwrap
              (Client.partition ~algorithm:"BruteForce" ~budget_steps:5 c w)
          in
          Alcotest.(check (option string))
            "tiny budget times out" (Some "timed_out")
            (Protocol.string_field "run_status" reply);
          match Json.member "layout" reply with
          | Some (Json.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "degraded reply still carries a valid layout"))

let test_open_validation () =
  let w = Lazy.force small_workload in
  let table = Workload.table w in
  with_daemon (fun port ->
      with_client port (fun c ->
          (match
             Client.open_session ~panel:[ "NoSuchAlgo" ] c ~session:"bad" table
           with
          | Error msg ->
              Alcotest.(check bool)
                "unknown panel is a clean error" true
                (contains msg "unknown panel algorithm")
          | Ok _ -> Alcotest.fail "unknown panel algorithm accepted");
          let stats = unwrap (Client.server_stats c) in
          Alcotest.(check (option int))
            "failed open leaks no session" (Some 0)
            (Protocol.int_field "sessions" stats);
          Alcotest.(check bool)
            "fresh open creates" true
            (unwrap (Client.open_session c ~session:"s" table)).Client.created;
          let reopened = unwrap (Client.open_session c ~session:"s" table) in
          Alcotest.(check bool) "re-open reattaches" false reopened.Client.created;
          Alcotest.(check bool)
            "re-open of a live session is not a restore" false
            reopened.Client.restored;
          let other =
            Table.make ~name:"other"
              ~attributes:[ Attribute.make "x" Attribute.Int32 ]
              ~row_count:10
          in
          (match Client.open_session c ~session:"s" other with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "session reopened with a different table");
          let _hist = unwrap (Client.close_session c ~session:"s") in
          let stats = unwrap (Client.server_stats c) in
          Alcotest.(check (option int))
            "close removes the session" (Some 0)
            (Protocol.int_field "sessions" stats)))

(* --- the determinism contract --- *)

let streams =
  lazy
    (List.init 4 (fun i ->
         Vp_benchmarks.Synthetic.drift_workload
           ~seed:(Int64.of_int (101 + i))
           ~attributes:8 ~clusters:3 ~rows:50_000 ~queries:80 ~scatter:0.05
           ~drift_at:0.5 ()))

let session_disk =
  Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default (Vp_cost.Disk.mb 1.0)

let expected_histories =
  lazy
    (List.map
       (fun w ->
         let config =
           Vp_online.Service.default_config ~jobs:1 ~disk:session_disk
             ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
             ()
         in
         (Vp_online.Replay.run ~config w).Vp_online.Replay.history)
       (Lazy.force streams))

let replay_over_wire ~server_jobs () =
  with_daemon ~jobs:server_jobs (fun port ->
      let worker i w () =
        with_client port (fun c ->
            let session = Printf.sprintf "s%d" i in
            let table = Workload.table w in
            let opened =
              unwrap (Client.open_session ~buffer_mb:1.0 c ~session table)
            in
            if not opened.Client.created then
              Alcotest.failf "session %s existed" session;
            Array.iter
              (fun q -> ignore (unwrap (Client.ingest c ~session table q)))
              (Workload.queries w);
            let hist = unwrap (Client.history c ~session) in
            let final = unwrap (Client.close_session c ~session) in
            Alcotest.(check string)
              "history and close agree" hist final;
            hist)
      in
      List.map Domain.join
        (List.mapi
           (fun i w -> Domain.spawn (worker i w))
           (Lazy.force streams)))

let check_wire_matches ~server_jobs () =
  let wire = replay_over_wire ~server_jobs () in
  List.iteri
    (fun i (expected, got) ->
      Alcotest.(check string)
        (Printf.sprintf "stream %d, --jobs %d: wire history = local replay" i
           server_jobs)
        expected got;
      Alcotest.(check bool)
        (Printf.sprintf "stream %d produced decisions" i)
        true
        (String.length got > 0))
    (List.combine (Lazy.force expected_histories) wire)

let test_concurrent_determinism () =
  check_wire_matches ~server_jobs:1 ();
  check_wire_matches ~server_jobs:4 ()

let test_concurrent_determinism_traced () =
  Vp_observe.Switch.with_level Vp_observe.Switch.Trace (fun () ->
      check_wire_matches ~server_jobs:4 ())

(* --- hostile input --- *)

let connect_raw = Testutil.connect_raw

let send_raw = Testutil.send_raw

let read_reply = Testutil.read_reply

let expect_error = Testutil.expect_error

let test_protocol_robustness () =
  with_daemon (fun port ->
      let fd = connect_raw port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          expect_error fd "empty frame" "\n";
          expect_error fd "truncated JSON" "{\"op\": \"pi\n";
          expect_error fd "non-JSON garbage" "!!! not json at all\n";
          expect_error fd "non-object frame" "[1, 2, 3]\n";
          expect_error fd "unknown op" "{\"op\": \"make-coffee\"}\n";
          expect_error fd "missing op" "{\"session\": \"x\"}\n";
          expect_error fd "hostile nesting" (String.make 200 '[' ^ "\n");
          (* An oversized frame: the reply arrives while we are still
             allowed to finish the line; the connection must survive. *)
          send_raw fd (String.make (Protocol.max_frame_bytes + 4096) 'a');
          let reply = read_reply fd in
          Alcotest.(check string)
            "oversized frame answered with a clean error" "error"
            (Protocol.reply_status reply);
          send_raw fd "\n";
          (* The same connection still serves valid requests. *)
          send_raw fd (Json.to_string Protocol.ping ^ "\n");
          Alcotest.(check string)
            "connection survives the abuse" "ok"
            (Protocol.reply_status (read_reply fd)));
      (* Mid-request disconnect: half a frame, then close. *)
      let fd2 = connect_raw port in
      send_raw fd2 "{\"op\": \"part";
      Unix.close fd2;
      (* The daemon neither died nor corrupted other connections. *)
      with_client port (fun c ->
          Alcotest.(check int)
            "daemon alive after disconnects" Protocol.protocol_version
            (unwrap (Client.ping c));
          let stats = unwrap (Client.server_stats c) in
          Alcotest.(check (option int))
            "no leaked sessions" (Some 0)
            (Protocol.int_field "sessions" stats)))

(* Shared by the daemon and the router: both admit through the same
   connection core, so a 1-slot server must shed the second client with
   a retry hint and let a retry through once the slot frees. *)
let overload_shed port =
  (* One connection parks in a sleep, occupying the single slot. *)
  let sleeper =
    Domain.spawn (fun () ->
        with_client port (fun c ->
            Client.request c (Protocol.sleep ~ms:400)))
  in
  Unix.sleepf 0.1;
  with_client port (fun c ->
      (match Client.request c Protocol.ping with
      | Ok reply ->
          Alcotest.(check string)
            "second client is shed" "overloaded"
            (Protocol.reply_status reply);
          (match Protocol.retry_after_ms reply with
          | Some ms -> Alcotest.(check bool) "retry hint" true (ms > 0)
          | None -> Alcotest.fail "overloaded reply without retry_after_ms")
      | Error msg -> Alcotest.failf "shed reply lost: %s" msg);
      (* Retrying with backoff eventually gets through — the
         overloaded path degrades, it does not hang. *)
      match Client.request_retry ~attempts:50 c Protocol.ping with
      | Ok reply ->
          Alcotest.(check string)
            "retry succeeds once drained" "ok"
            (Protocol.reply_status reply)
      | Error msg -> Alcotest.failf "retry never got through: %s" msg);
  match Domain.join sleeper with
  | Ok reply ->
      Alcotest.(check string)
        "sleeper completed" "ok"
        (Protocol.reply_status reply)
  | Error msg -> Alcotest.failf "sleeper failed: %s" msg

let test_overload_shed () = with_daemon ~jobs:1 ~max_pending:1 overload_shed

(* The other side of backpressure: bounded concurrency under the
   admission limit is never shed. 4 clients x 16 fixed-service-time
   requests (a stand-in for an I/O-bound layout fetch) against 1 and 4
   server jobs with the default [max_pending] must all be answered
   "ok" — 0 shed replies, 0 errors. *)
let test_normal_load_never_sheds () =
  let clients = 4 and requests_each = 16 in
  List.iter
    (fun jobs ->
      with_daemon ~jobs (fun port ->
          let worker () =
            with_client port (fun c ->
                let ok = ref 0 and shed = ref 0 and errors = ref 0 in
                for _ = 1 to requests_each do
                  match Client.request c (Protocol.sleep ~ms:20) with
                  | Ok reply when Protocol.reply_status reply = "ok" -> incr ok
                  | Ok reply when Protocol.reply_status reply = "overloaded" ->
                      incr shed
                  | Ok _ | Error _ -> incr errors
                done;
                (!ok, !shed, !errors))
          in
          let outcomes =
            List.map Domain.join
              (List.init clients (fun _ -> Domain.spawn worker))
          in
          let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
          Alcotest.(check int)
            (Printf.sprintf "normal-load shed replies, %d server job(s)" jobs)
            0
            (sum (fun (_, s, _) -> s));
          Alcotest.(check int)
            (Printf.sprintf "errors, %d server job(s)" jobs)
            0
            (sum (fun (_, _, e) -> e));
          Alcotest.(check int)
            (Printf.sprintf "ok replies, %d server job(s)" jobs)
            (clients * requests_each)
            (sum (fun (o, _, _) -> o))))
    [ 1; 4 ]

let test_router_overload_shed () =
  Testutil.with_temp_dir "router-shed" (fun data_dir ->
      let r =
        Vp_router.Router.create ~port:0 ~jobs:1 ~max_pending:1 ~shards:1
          ~data_dir ()
      in
      let server = Domain.spawn (fun () -> Vp_router.Router.serve r) in
      Fun.protect
        ~finally:(fun () ->
          Vp_router.Router.stop r;
          Domain.join server)
        (fun () -> overload_shed (Vp_router.Router.port r)))

(* A server that never ends its reply line must not make the client
   buffer without bound: past the frame limit plus 4 KiB the exchange
   fails. The fake server sends one byte more, then half-closes, so a
   looser bound shows up as a different error rather than a hang. *)
let test_client_reply_bound () =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let server =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept lfd in
        Testutil.send_raw fd (String.make (Protocol.max_frame_bytes + 4097) 'a');
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let buf = Bytes.create 4096 in
        while (try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0) > 0 do
          ()
        done;
        Unix.close fd)
  in
  with_client port (fun c ->
      match Client.request c Protocol.ping with
      | Ok _ -> Alcotest.fail "an unterminated reply was accepted"
      | Error msg ->
          Alcotest.(check bool) msg true (Testutil.contains msg "exceeds"));
  Domain.join server;
  Unix.close lfd

let test_shutdown_op () =
  let d = Vp_server.Daemon.create ~port:0 ~jobs:2 () in
  let server = Domain.spawn (fun () -> Vp_server.Daemon.serve d) in
  with_client (Vp_server.Daemon.port d) (fun c ->
      ignore (unwrap (Client.open_session c ~session:"s"
                        (Workload.table (Lazy.force small_workload))));
      unwrap (Client.shutdown_server c));
  (* serve returns on its own: the wire shutdown drained the daemon. *)
  Domain.join server;
  Alcotest.(check pass) "daemon drained after wire shutdown" () ()

(* --- vp client --script --- *)

let test_script_replay () =
  let script =
    "-- a tiny replayable workload\n\
     CREATE TABLE widgets (A INT, B INT, C DECIMAL, D VARCHAR(20)) ROWS \
     100000;\n\
     SELECT A, B FROM widgets;\n\
     SELECT C, D FROM widgets WEIGHT 2.0;\n\
     SELECT * FROM widgets;\n"
  in
  let path = Filename.temp_file "vp_script" ".sql" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc script;
      close_out oc;
      with_daemon (fun port ->
          with_client port (fun c ->
              match Client.replay_script c path with
              | Error msg -> Alcotest.failf "replay failed: %s" msg
              | Ok [ (table, _hist) ] ->
                  Alcotest.(check string) "one session per table" "widgets"
                    table;
                  let stats = unwrap (Client.server_stats c) in
                  Alcotest.(check (option int))
                    "script sessions closed" (Some 0)
                    (Protocol.int_field "sessions" stats)
              | Ok entries ->
                  Alcotest.failf "expected 1 table, got %d"
                    (List.length entries))))

let test_script_parse_error () =
  let path = Filename.temp_file "vp_script" ".sql" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "CREATE TABLE t (A INT) ROWS 10;\nSELECT B FROM t;\n";
      close_out oc;
      (* No daemon needed: the script is rejected before any I/O. *)
      let c = Client.create ~port:1 () in
      match Client.replay_script c path with
      | Ok _ -> Alcotest.fail "bad script accepted"
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "error is line-numbered: %s" msg)
            true (contains msg "line 2"))

let suite =
  [
    Alcotest.test_case "ping and stats" `Quick test_ping_stats;
    Alcotest.test_case "partition matches local exec" `Quick
      test_partition_matches_local;
    Alcotest.test_case "budget degrades to timed_out" `Quick
      test_budget_degrades;
    Alcotest.test_case "open validation and reattach" `Quick
      test_open_validation;
    Alcotest.test_case "concurrent sessions deterministic" `Quick
      test_concurrent_determinism;
    Alcotest.test_case "concurrent sessions deterministic (traced)" `Quick
      test_concurrent_determinism_traced;
    Alcotest.test_case "protocol robustness (fuzz)" `Quick
      test_protocol_robustness;
    Alcotest.test_case "overload sheds with retry-after" `Quick
      test_overload_shed;
    Alcotest.test_case "normal load never sheds" `Quick
      test_normal_load_never_sheds;
    Alcotest.test_case "router overload sheds with retry-after" `Quick
      test_router_overload_shed;
    Alcotest.test_case "client bounds reply lines" `Quick
      test_client_reply_bound;
    Alcotest.test_case "wire shutdown drains" `Quick test_shutdown_op;
    Alcotest.test_case "client --script replay" `Quick test_script_replay;
    Alcotest.test_case "client --script parse errors" `Quick
      test_script_parse_error;
  ]
