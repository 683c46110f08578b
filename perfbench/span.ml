(* The benchmark's own spans, recorded around its calls into each layer
   during a traced run: name, start, end, parent. Kept in memory and
   written out once, when the run ends. Safe to record from several
   domains. *)

type t = { id : int; parent : int; name : string; t0 : float; t1 : float }

let enabled = Atomic.make false

let next_id = Atomic.make 1

let lock = Mutex.create ()

let spans : t list ref = ref []

let fresh_id () = Atomic.fetch_and_add next_id 1

let record ~id ~parent ~name ~t0 ~t1 =
  Mutex.protect lock (fun () ->
      spans := { id; parent; name; t0; t1 } :: !spans)

(* Runs [f] inside a span when tracing is on; [f] receives the span's id
   so nested calls can name it as their parent. *)
let with_ ?(parent = 0) name f =
  if not (Atomic.get enabled) then f 0
  else begin
    let id = fresh_id () in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        record ~id ~parent ~name ~t0 ~t1:(Unix.gettimeofday ()))
      (fun () -> f id)
  end

let count () = Mutex.protect lock (fun () -> List.length !spans)

(* One JSON object per line, oldest first; times in seconds since the
   epoch. *)
let write path =
  let all = Mutex.protect lock (fun () -> List.rev !spans) in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%s,\"start\":%.6f,\"end\":%.6f}\n"
            s.id s.parent
            (Vp_observe.Json.to_string (String s.name))
            s.t0 s.t1)
        all)
