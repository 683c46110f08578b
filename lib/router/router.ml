module Json = Vp_observe.Json
module Protocol = Vp_server.Protocol
module Sessions = Vp_server.Sessions
module Journal = Vp_robust.Journal
module Client = Vp_client.Client
module Conn_loop = Vp_server.Conn_loop

let c_requests = Vp_observe.Stats.counter "router.requests"

let c_forwards = Vp_observe.Stats.counter "router.forwards"

let c_shed = Vp_observe.Stats.counter "router.shed"

let c_handoffs = Vp_observe.Stats.counter "router.handoffs"

let c_restarts = Vp_observe.Stats.counter "router.restarts"

let c_failures = Vp_observe.Stats.counter "router.shard_failures"

let stat_incr c = if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c

type shard = {
  id : string;
  dir : string;
  mutable port : int;
  mutable pid : int;  (* [-1] once known dead (awaiting respawn/removal) *)
  mutable healthy : bool;
  mutable restarts : int;
}

type t = {
  loop : Conn_loop.t;
  shard_jobs : int;
  shard_max_pending : int;
  max_resident : int option;
  fsync : Journal.fsync;
  replicas : int;
  data_dir : string;
  (* [state] guards [shards] and [ring] (short critical sections on the
     request path); [control] serializes ring changes and supervision
     (held across a whole handoff). Lock order: control before state. *)
  state : Mutex.t;
  shards : (string, shard) Hashtbl.t;
  mutable ring : Ring.t;
  mutable next_id : int;
  control : Mutex.t;
  (* While a handoff is reshaping the ring, every session op sheds: a
     frame must never race the files it routes to. *)
  reconfiguring : bool Atomic.t;
  rr : int Atomic.t;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- talking to shards: one-shot typed RPCs (control plane) --- *)

let checked = function
  | Error _ as e -> e
  | Ok reply -> (
      match Protocol.reply_status reply with
      | "ok" -> Ok reply
      | "error" ->
          Error (Option.value (Protocol.reply_error reply) ~default:"shard error")
      | other -> Error (Printf.sprintf "unexpected reply status %S" other))

let shard_rpc ?attempts port req =
  let c = Client.create ~port () in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> checked (Client.request_retry ?attempts c req))

let session_list_of reply =
  match Json.member "sessions" reply with
  | Some (Json.List xs) ->
      List.filter_map (function Json.String s -> Some s | _ -> None) xs
  | _ -> []

(* --- spawning and supervising the fleet --- *)

let fsync_arg = function
  | Journal.Never -> "never"
  | Journal.Always -> "always"
  | Journal.Interval n -> string_of_int n

let read_port_file path =
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in path in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      int_of_string_opt (String.trim line)
    with Sys_error _ -> None

(* Spawns the shard's process (a re-exec of this binary through
   [Worker]) and waits until it reports its port and answers ping.
   Raises [Failure] — with the half-started process killed — when it
   cannot come up. *)
let spawn_shard t (s : shard) =
  mkdir_p s.dir;
  let port_file = Filename.concat s.dir "port" in
  (try Sys.remove port_file with Sys_error _ -> ());
  let args =
    [
      Sys.executable_name;
      Worker.sentinel;
      "--port";
      string_of_int s.port;
      "--port-file";
      port_file;
      "--data-dir";
      s.dir;
      "--jobs";
      string_of_int t.shard_jobs;
      "--max-pending";
      string_of_int t.shard_max_pending;
      "--fsync";
      fsync_arg t.fsync;
    ]
    @ (match t.max_resident with
      | Some n -> [ "--max-resident"; string_of_int n ]
      | None -> [])
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
      Unix.stdout Unix.stderr
  in
  s.pid <- pid;
  s.healthy <- false;
  let deadline = Unix.gettimeofday () +. 15.0 in
  let fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    s.pid <- -1;
    failwith (Printf.sprintf "shard %s failed to start: %s" s.id msg)
  in
  let died () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  let rec wait_port () =
    match read_port_file port_file with
    | Some p -> p
    | None ->
        if died () then begin
          s.pid <- -1;
          failwith (Printf.sprintf "shard %s died during startup" s.id)
        end
        else if Unix.gettimeofday () > deadline then
          fail "no port report within 15s"
        else begin
          Unix.sleepf 0.01;
          wait_port ()
        end
  in
  s.port <- wait_port ();
  let rec wait_ping () =
    let c = Client.create ~port:s.port () in
    let r = Client.ping c in
    Client.close c;
    match r with
    | Ok _ -> ()
    | Error _ ->
        if Unix.gettimeofday () > deadline then fail "not answering ping"
        else begin
          Unix.sleepf 0.02;
          wait_ping ()
        end
  in
  wait_ping ();
  s.healthy <- true

(* One supervisor sweep: reap dead shards, restart them on their fixed
   port + data dir (the daemon's startup recovery scan restores their
   sessions). Runs with [control] held, so it never races a handoff. *)
let supervise_cycle t =
  let dead =
    Mutex.protect t.state (fun () ->
        Hashtbl.fold
          (fun _ s acc ->
            if s.pid > 0 then (
              match Unix.waitpid [ Unix.WNOHANG ] s.pid with
              | 0, _ -> acc
              | _ -> s :: acc
              | exception Unix.Unix_error (Unix.ECHILD, _, _) -> s :: acc)
            else if s.pid = -1 then s :: acc (* earlier respawn failed *)
            else acc)
          t.shards [])
  in
  List.iter
    (fun s ->
      if not (Conn_loop.stopping t.loop) then begin
        if s.healthy then begin
          s.healthy <- false;
          stat_incr c_failures
        end;
        s.pid <- -1;
        match spawn_shard t s with
        | () ->
            s.restarts <- s.restarts + 1;
            stat_incr c_restarts
        | exception _ -> () (* still down; retried next sweep *)
      end)
    dead

let supervise t =
  while not (Conn_loop.stopping t.loop) do
    Mutex.protect t.control (fun () -> supervise_cycle t);
    Unix.sleepf 0.05
  done

(* Graceful stop of one shard: SIGTERM (the worker routes it to the
   daemon's drain, spilling every session to disk), escalating to
   SIGKILL after a generous grace period. *)
let stop_shard (s : shard) =
  if s.pid > 0 then begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 15.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ()
          end
          else begin
            Unix.sleepf 0.02;
            wait ()
          end
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end;
  s.pid <- -1;
  s.healthy <- false

(* --- construction --- *)

(* Shard [i], not yet spawned: [spawn_shard] fills in its port and pid. *)
let new_shard t i =
  let id = Printf.sprintf "shard-%d" i in
  let dir = Filename.concat t.data_dir id in
  { id; dir; port = 0; pid = 0; healthy = false; restarts = 0 }

let create ?(host = "127.0.0.1") ?(port = Protocol.default_port) ?(jobs = 4)
    ?(max_pending = 64) ?(shards = 3) ?(shard_jobs = 4)
    ?(shard_max_pending = 64) ?max_resident ?(fsync = Journal.Never)
    ?(replicas = Ring.default_replicas) ~data_dir () =
  if jobs < 1 then invalid_arg "Router.create: jobs must be >= 1";
  if max_pending < 1 then invalid_arg "Router.create: max_pending must be >= 1";
  if shards < 1 then invalid_arg "Router.create: shards must be >= 1";
  if shard_jobs < 1 then invalid_arg "Router.create: shard_jobs must be >= 1";
  let loop = Conn_loop.create ~host ~port ~jobs ~max_pending ~shed:c_shed () in
  let t =
    {
      loop;
      shard_jobs;
      shard_max_pending;
      max_resident;
      fsync;
      replicas;
      data_dir;
      state = Mutex.create ();
      shards = Hashtbl.create 8;
      ring = Ring.make ~replicas [];
      next_id = shards;
      control = Mutex.create ();
      reconfiguring = Atomic.make false;
      rr = Atomic.make 0;
    }
  in
  mkdir_p data_dir;
  let fleet = List.init shards (fun i -> new_shard t i) in
  (try List.iter (fun s -> spawn_shard t s) fleet
   with e ->
     List.iter (fun s -> stop_shard s) fleet;
     Conn_loop.close loop;
     raise e);
  List.iter (fun s -> Hashtbl.replace t.shards s.id s) fleet;
  t.ring <- Ring.make ~replicas (List.map (fun s -> s.id) fleet);
  t

let port t = Conn_loop.port t.loop

let shard_count t = Mutex.protect t.state (fun () -> Hashtbl.length t.shards)

let stop t = Conn_loop.stop t.loop

let install_signal_handlers t = Conn_loop.install_signal_handlers t.loop

(* --- the data plane: raw verbatim forwarding ---

   A forwarded frame and its reply are relayed byte-for-byte — never
   parsed-and-reprinted — so the shard's reply (including history
   strings under the determinism contract) crosses the router
   untouched. Each client connection keeps one shard client per shard
   it has talked to, replaced when that shard restarts on a new port. *)

let client_for cache (s : shard) =
  match Hashtbl.find_opt cache s.id with
  | Some c when Client.port c = s.port -> c
  | stale ->
      Option.iter Client.close stale;
      let c = Client.create ~port:s.port () in
      Hashtbl.replace cache s.id c;
      c

(* A reply to relay as-is, or one the router built itself. *)
type outcome = Raw of string | Doc of Json.t

let shed_outcome () =
  stat_incr c_shed;
  Doc (Protocol.overloaded_reply ~retry_after_ms:Conn_loop.retry_after_ms)

let forward cache (s : shard) line =
  stat_incr c_forwards;
  match Client.request_line (client_for cache s) line with
  | Ok reply -> Raw reply
  | Error _ ->
      (* The shard is down, or died (or hung up) mid-exchange: shed, so
         the client's seq-idempotent retry lands after the restart. *)
      stat_incr c_failures;
      shed_outcome ()

let all_shards t =
  Mutex.protect t.state (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.shards [])
  |> List.sort (fun a b -> String.compare a.id b.id)

let owner t session =
  Mutex.protect t.state (fun () ->
      match Ring.lookup_opt t.ring session with
      | None -> None
      | Some id -> Hashtbl.find_opt t.shards id)

let forward_session t cache session line =
  if Atomic.get t.reconfiguring then shed_outcome ()
  else
    match owner t session with
    | Some s when s.healthy -> forward cache s line
    | Some _ | None -> shed_outcome ()

let forward_rr t cache line =
  match List.filter (fun s -> s.healthy) (all_shards t) with
  | [] -> shed_outcome ()
  | shards ->
      let i = Atomic.fetch_and_add t.rr 1 in
      forward cache (List.nth shards (i mod List.length shards)) line

(* --- aggregated ops --- *)

let aggregate_stats t =
  let counters = Hashtbl.create 32 and gauges = Hashtbl.create 16 in
  let bump table kvs =
    List.iter
      (fun (name, v) ->
        Hashtbl.replace table name
          (v + Option.value (Hashtbl.find_opt table name) ~default:0))
      kvs
  in
  let ints_of field reply =
    match Json.member field reply with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (function name, Json.Int v -> Some (name, v) | _ -> None)
          kvs
    | _ -> []
  in
  let sessions = ref 0 and unreachable = ref 0 in
  let per_shard = ref [] in
  List.iter
    (fun (s : shard) ->
      if not s.healthy then incr unreachable
      else
        match shard_rpc ~attempts:3 s.port Protocol.stats with
        | Error _ -> incr unreachable
        | Ok reply ->
            let n =
              Option.value (Protocol.int_field "sessions" reply) ~default:0
            in
            sessions := !sessions + n;
            per_shard := (s.id, Json.Int n) :: !per_shard;
            bump counters (ints_of "counters" reply);
            bump gauges (ints_of "gauges" reply))
    (all_shards t);
  (* The router's own probes ride along under their router.* names. *)
  let snap = Vp_observe.Stats.snapshot () in
  bump counters snap.Vp_observe.Stats.counters;
  bump gauges snap.Vp_observe.Stats.gauges;
  let sorted table =
    Hashtbl.fold (fun name v acc -> (name, Json.Int v) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Protocol.ok_reply
    [
      ("sessions", Json.Int !sessions);
      ("counters", Json.Obj (sorted counters));
      ("gauges", Json.Obj (sorted gauges));
      ("shards", Json.Obj (List.rev !per_shard));
      ("shards_unreachable", Json.Int !unreachable);
    ]

let aggregate_sessions t =
  let names =
    List.concat_map
      (fun (s : shard) ->
        if not s.healthy then []
        else
          match shard_rpc ~attempts:3 s.port Protocol.sessions_request with
          | Ok reply -> session_list_of reply
          | Error _ -> [])
      (all_shards t)
  in
  Protocol.ok_reply
    [
      ( "sessions",
        Json.List
          (List.map (fun n -> Json.String n) (List.sort_uniq compare names)) );
    ]

let cluster_info t =
  let shard_json (s : shard) =
    Json.Obj
      [
        ("id", Json.String s.id);
        ("port", Json.Int s.port);
        ("pid", Json.Int s.pid);
        ("healthy", Json.Bool s.healthy);
        ("restarts", Json.Int s.restarts);
      ]
  in
  Protocol.ok_reply
    [
      ("shards", Json.List (List.map shard_json (all_shards t)));
      ("replicas", Json.Int t.replicas);
      ("reconfiguring", Json.Bool (Atomic.get t.reconfiguring));
    ]

(* --- handoff: ring changes move sessions as files --- *)

let move_session_files ~src ~dst name =
  let prefix = Sessions.file_prefix name in
  List.iter
    (fun ext ->
      let from_path = Filename.concat src (prefix ^ ext) in
      if Sys.file_exists from_path then
        Sys.rename from_path (Filename.concat dst (prefix ^ ext)))
    [ ".meta"; ".snap"; ".wal" ]

let checked_is_ok = function Ok _ -> true | Error _ -> false

let adopt_on (dest : shard) name =
  checked_is_ok (shard_rpc dest.port (Protocol.adopt_request ~session:name))

let while_reconfiguring t f =
  Atomic.set t.reconfiguring true;
  Fun.protect ~finally:(fun () -> Atomic.set t.reconfiguring false) f

(* Remove: gracefully stop the victim (its drain spills every session),
   then move everything it left on disk to the new ring owners. A
   victim that already crashed is just reaped — its crash state (meta +
   WAL) hands off the same way, and the gainer's first touch replays it
   exactly like crash recovery. *)
let cluster_remove t id =
  Mutex.protect t.control (fun () ->
      match Mutex.protect t.state (fun () -> Hashtbl.find_opt t.shards id) with
      | None -> Protocol.error_reply (Printf.sprintf "unknown shard %S" id)
      | Some victim ->
          if Mutex.protect t.state (fun () -> Hashtbl.length t.shards) <= 1 then
            Protocol.error_reply "cannot remove the last shard"
          else
            while_reconfiguring t (fun () ->
                let ring' = Mutex.protect t.state (fun () -> Ring.remove t.ring id) in
                stop_shard victim;
                let names = Sessions.on_disk_sessions victim.dir in
                let moved = ref 0 and errors = ref 0 in
                List.iter
                  (fun name ->
                    let dest =
                      Mutex.protect t.state (fun () ->
                          Option.bind (Ring.lookup_opt ring' name)
                            (Hashtbl.find_opt t.shards))
                    in
                    match dest with
                    | None -> incr errors
                    | Some dest ->
                        move_session_files ~src:victim.dir ~dst:dest.dir name;
                        if adopt_on dest name then begin
                          incr moved;
                          stat_incr c_handoffs
                        end
                        else incr errors)
                  names;
                Mutex.protect t.state (fun () ->
                    Hashtbl.remove t.shards id;
                    t.ring <- ring');
                Protocol.ok_reply
                  [
                    ("shard", Json.String id);
                    ("moved", Json.Int !moved);
                    ("handoff_errors", Json.Int !errors);
                  ]))

(* Add: bring the newcomer up first, then pull over exactly the
   sessions the new ring assigns to it (the consistent-hash property:
   nothing else moves). Live losers [detach] (spill + forget, files
   kept); a crashed loser's sessions are taken straight off its disk. *)
let cluster_add t =
  Mutex.protect t.control (fun () ->
      let s = new_shard t t.next_id in
      let id = s.id in
      t.next_id <- t.next_id + 1;
      match spawn_shard t s with
      | exception Failure msg -> Protocol.error_reply msg
      | () ->
          Mutex.protect t.state (fun () -> Hashtbl.replace t.shards id s);
          let ring' = Mutex.protect t.state (fun () -> Ring.add t.ring id) in
          while_reconfiguring t (fun () ->
              let moved = ref 0 and errors = ref 0 in
              let losers =
                List.filter (fun (l : shard) -> l.id <> id) (all_shards t)
              in
              List.iter
                (fun (l : shard) ->
                  let live = l.healthy && l.pid > 0 in
                  let names =
                    if live then
                      match shard_rpc l.port Protocol.sessions_request with
                      | Ok reply -> session_list_of reply
                      | Error _ -> []
                    else Sessions.on_disk_sessions l.dir
                  in
                  List.iter
                    (fun name ->
                      if Ring.lookup ring' name = id then begin
                        let detached =
                          if live then
                            checked_is_ok
                              (shard_rpc l.port
                                 (Protocol.detach_request ~session:name))
                          else true
                        in
                        if detached then begin
                          move_session_files ~src:l.dir ~dst:s.dir name;
                          if adopt_on s name then begin
                            incr moved;
                            stat_incr c_handoffs
                          end
                          else incr errors
                        end
                        else incr errors
                      end)
                    names)
                losers;
              Mutex.protect t.state (fun () -> t.ring <- ring');
              Protocol.ok_reply
                [
                  ("shard", Json.String id);
                  ("moved", Json.Int !moved);
                  ("handoff_errors", Json.Int !errors);
                ]))

let cluster_locate t doc =
  match Json.member "session" doc with
  | Some (Json.String session) -> (
      match Mutex.protect t.state (fun () -> Ring.lookup_opt t.ring session) with
      | Some id -> Protocol.ok_reply [ ("shard", Json.String id) ]
      | None -> Protocol.error_reply "the ring is empty")
  | Some _ | None ->
      Protocol.error_reply "missing or non-string field \"session\""

(* --- per-frame dispatch --- *)

let dispatch t cache op doc line =
  match op with
  | "open" | "ingest" | "layout" | "history" | "close" -> (
      match Json.member "session" doc with
      | Some (Json.String session) -> forward_session t cache session line
      | Some _ | None ->
          Doc (Protocol.error_reply "missing or non-string field \"session\""))
  | "partition" | "sleep" -> forward_rr t cache line
  | "ping" ->
      Doc
        (Protocol.ok_reply
           [
             ("protocol", Json.Int Protocol.protocol_version);
             ("router", Json.Bool true);
             ("shards", Json.Int (shard_count t));
           ])
  | "stats" -> Doc (aggregate_stats t)
  | "sessions" -> Doc (aggregate_sessions t)
  | "detach" | "adopt" ->
      Doc
        (Protocol.error_reply
           (Printf.sprintf
              "op %S is shard-internal; the router manages session placement"
              op))
  | "shutdown" ->
      stop t;
      Doc (Protocol.ok_reply [ ("stopping", Json.Bool true) ])
  | "cluster_info" -> Doc (cluster_info t)
  | "cluster_locate" -> Doc (cluster_locate t doc)
  | "cluster_add" -> Doc (cluster_add t)
  | "cluster_remove" -> (
      match Json.member "shard" doc with
      | Some (Json.String id) -> Doc (cluster_remove t id)
      | Some _ | None ->
          Doc (Protocol.error_reply "missing or non-string field \"shard\""))
  | other -> Doc (Protocol.error_reply (Printf.sprintf "unknown op %S" other))

let reply_to_frame t cache line =
  stat_incr c_requests;
  match
    Json.of_string ~max_depth:Protocol.max_depth
      ~max_size:Protocol.max_frame_bytes line
  with
  | Error msg ->
      Doc (Protocol.error_reply (Printf.sprintf "malformed frame: %s" msg))
  | Ok doc -> (
      match Json.member "op" doc with
      | Some (Json.String op) ->
          let run () = dispatch t cache op doc line in
          let guarded () =
            try run ()
            with exn ->
              Doc
                (Protocol.error_reply
                   (Printf.sprintf "internal error: %s" (Printexc.to_string exn)))
          in
          if Vp_observe.Switch.trace_on () then
            Vp_observe.Trace.with_span ~name:"router.request"
              ~args:[ ("op", op) ] guarded
          else guarded ()
      | Some _ | None ->
          Doc (Protocol.error_reply "missing or non-string field \"op\""))

let serve t =
  let supervisor = Domain.spawn (fun () -> supervise t) in
  Conn_loop.serve t.loop
    ~with_connection:(fun run ->
      let cache : (string, Client.t) Hashtbl.t = Hashtbl.create 4 in
      Fun.protect
        ~finally:(fun () -> Hashtbl.iter (fun _ c -> Client.close c) cache)
        (fun () ->
          run (fun line ->
              match reply_to_frame t cache line with
              | Raw reply -> reply
              | Doc json -> Json.to_string json)))
    ~epilogue:(fun () ->
      Domain.join supervisor;
      List.iter stop_shard (all_shards t))
