(* Child processes under test, and the host facts read from /proc. *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Total bytes of the regular files under [dir]. *)
let rec dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      match Unix.lstat p with
      | { Unix.st_kind = Unix.S_DIR; _ } -> acc + dir_bytes p
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc
      | exception Unix.Unix_error _ -> acc)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

(* Files under [dir] (recursively) whose name ends in one of [exts]. *)
let rec files_with_ext dir exts =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then files_with_ext p exts @ acc
      else if List.exists (Filename.check_suffix f) exts then p :: acc
      else acc)
    []
    (try Sys.readdir dir with Sys_error _ -> [||])

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of a live process, in KiB; 0 when gone. *)
let vm_hwm_kib pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
             | _ -> None)
      |> Option.value ~default:0

let self_pid = Unix.getpid ()

let loadavg () =
  match read_file "/proc/loadavg" with
  | exception Sys_error _ -> "unknown"
  | s -> (
      match String.split_on_char ' ' s with
      | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
      | _ -> String.trim s)

type child = { pid : int; out : in_channel; port : int }

let children : child list ref = ref []

(* Reads the child's stdout up to its "vp layout <what> listening on
   HOST:PORT ..." banner. *)
let rec await_port ic =
  match
    Scanf.sscanf_opt (input_line ic) "vp layout %s listening on %[^:]:%d"
      (fun _ _ port -> port)
  with
  | Some port -> port
  | None -> await_port ic

(* Spawns [exe args] with [env] added to the environment and waits for
   its listening banner. The child's stderr is ours. *)
let spawn ~env exe args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let environment = Array.append (Array.of_list env) (Unix.environment ()) in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      environment Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  match await_port out with
  | port ->
      let c = { pid; out; port } in
      children := c :: !children;
      c
  | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      close_in out;
      failwith (Printf.sprintf "%s %s exited before listening" exe
                  (String.concat " " args))

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* SIGTERM (graceful drain), then SIGKILL if it has not exited within
   [grace] seconds; always reaps. *)
let stop ?(grace = 20.0) c =
  if List.memq c !children then begin
    children := List.filter (fun x -> x != c) !children;
    (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace in
    while alive c.pid && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    if alive c.pid then begin
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ()
    end;
    close_in_noerr c.out
  end

(* Waits until none of [pids] exists any more (the router reaps its own
   shards on drain; this only confirms it), killing stragglers. *)
let await_gone ?(grace = 10.0) pids =
  let exists pid =
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error _ -> false
  in
  let deadline = Unix.gettimeofday () +. grace in
  while List.exists exists pids && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (List.filter exists pids)

let () = at_exit (fun () -> List.iter (stop ~grace:5.0) !children)
