module Json = Vp_observe.Json

let retry_after_ms = 100

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  jobs : int;
  max_pending : int;
  shed : Vp_observe.Stats.counter;
  stopping : bool Atomic.t;
  in_flight : int Atomic.t;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_mutex : Mutex.t;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let create ~host ~port ~jobs ~max_pending ~shed () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd addr;
     Unix.listen fd 64
   with e ->
     close_quietly fd;
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  {
    listen_fd = fd;
    port;
    jobs;
    max_pending;
    shed;
    stopping = Atomic.make false;
    in_flight = Atomic.make 0;
    conns = Hashtbl.create 16;
    conns_mutex = Mutex.create ();
  }

let port t = t.port

let jobs t = t.jobs

let close t = close_quietly t.listen_fd

let stop t = Atomic.set t.stopping true

let stopping t = Atomic.get t.stopping

let install_signal_handlers t =
  let ignore_bad_signal f =
    (* SIGPIPE etc. do not exist on every platform. *)
    try f () with Invalid_argument _ | Sys_error _ -> ()
  in
  ignore_bad_signal (fun () ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore);
  let to_stop s =
    ignore_bad_signal (fun () ->
        Sys.set_signal s (Sys.Signal_handle (fun _ -> stop t)))
  in
  to_stop Sys.sigterm;
  to_stop Sys.sigint

(* --- the connection loop: newline-framed requests over a stream --- *)

let serve_connection fd reply =
  let chunk_len = 8192 in
  let chunk = Bytes.create chunk_len in
  let acc = Buffer.create 256 in
  (* [discarding] is true while we are skipping the tail of a frame that
     already exceeded [max_frame_bytes] (the error reply has been sent;
     the connection stays usable for the next line). *)
  let discarding = ref false in
  let alive = ref true in
  let send line =
    let line = line ^ "\n" in
    let len = String.length line in
    let rec write_all off =
      if off < len then
        write_all (off + Unix.write_substring fd line off (len - off))
    in
    try write_all 0 with Unix.Unix_error _ | Sys_error _ -> alive := false
  in
  let handle_line line =
    if !discarding then discarding := false else send (reply line)
  in
  let overflow () =
    if not !discarding then begin
      send
        (Json.to_string
           (Protocol.error_reply
              (Printf.sprintf "frame exceeds the %d-byte limit"
                 Protocol.max_frame_bytes)));
      discarding := true
    end;
    Buffer.clear acc
  in
  while !alive do
    match Unix.read fd chunk 0 chunk_len with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> alive := false
    | 0 -> alive := false
    | n ->
        let start = ref 0 in
        for i = 0 to n - 1 do
          if Bytes.get chunk i = '\n' then begin
            Buffer.add_subbytes acc chunk !start (i - !start);
            start := i + 1;
            let line = Buffer.contents acc in
            Buffer.clear acc;
            handle_line line
          end
        done;
        Buffer.add_subbytes acc chunk !start (n - !start);
        (* A frame longer than the limit can never become valid; answer
           now instead of buffering an unbounded line. *)
        if Buffer.length acc > Protocol.max_frame_bytes then overflow ()
  done

(* --- the accept loop --- *)

let register_conn t fd =
  Mutex.protect t.conns_mutex (fun () -> Hashtbl.replace t.conns fd ())

let unregister_conn t fd =
  Mutex.protect t.conns_mutex (fun () -> Hashtbl.remove t.conns fd)

let shed t fd =
  if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr t.shed;
  let line = Json.to_string (Protocol.overloaded_reply ~retry_after_ms) ^ "\n" in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  close_quietly fd

let accept_one t pool with_connection =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | fd, _ ->
      if stopping t then close_quietly fd
      else if Atomic.get t.in_flight >= t.max_pending then shed t fd
      else begin
        Atomic.incr t.in_flight;
        register_conn t fd;
        Vp_parallel.Pool.submit pool (fun () ->
            Fun.protect
              ~finally:(fun () ->
                unregister_conn t fd;
                close_quietly fd;
                Atomic.decr t.in_flight)
              (fun () -> with_connection (serve_connection fd)))
      end

let drain t pool epilogue =
  close_quietly t.listen_fd;
  (* Half-close every in-flight connection's read side so a handler
     blocked in [Unix.read] sees EOF and winds down. *)
  Mutex.protect t.conns_mutex (fun () ->
      Hashtbl.iter
        (fun fd () ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.conns);
  while Atomic.get t.in_flight > 0 do
    Unix.sleepf 0.005
  done;
  epilogue ();
  Vp_parallel.Pool.shutdown pool

let serve t ~with_connection ~epilogue =
  (* [jobs + 1]: the accept loop is the pool's "helping caller" slot and
     never drains tasks, so the worker count equals the requested server
     parallelism. [~clamp:false] because connection handlers block in
     [Unix.read] rather than compute: a 4-job server must multiplex 4
     live connections even on a 1-core host, where the clamp would leave
     the pool workerless and [submit] would serve connections inline in
     the accept loop (no concurrency, no shedding). *)
  let pool = Vp_parallel.Pool.create ~clamp:false ~jobs:(t.jobs + 1) () in
  Fun.protect
    ~finally:(fun () -> drain t pool epilogue)
    (fun () ->
      while not (stopping t) do
        match Unix.select [ t.listen_fd ] [] [] 0.05 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ :: _, _, _ -> accept_one t pool with_connection
      done)
