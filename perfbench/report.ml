(* What one benchmark run found, and how it is printed. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  note : string;  (** Sample count, rung, base — printed, not gated. *)
}

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* Growable float buffer for raw per-op samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n

  let concat ts = Array.concat (List.map to_array ts)
end

(* Rounds of fixed work fill a run: another starts only while one more
   of median length still fits in [seconds], so a run holds the same
   number of rounds from seed to seed instead of sometimes one more. *)
let another_round ~start ~seconds walls =
  walls.Samples.n = 0
  || Unix.gettimeofday () -. start +. Stat.median (Samples.to_array walls)
     <= seconds

(* Median and ladder tail of raw samples in seconds, as ms metrics named
   [<prefix>_p50_ms] and [<prefix>_tail_ms]; each note carries the rung
   and the sample count. *)
let latency prefix samples =
  let n = Array.length samples in
  if n = 0 then
    [ metric (prefix ^ "_p50_ms") "ms" 0.0 ~note:"n=0";
      metric (prefix ^ "_tail_ms") "ms" 0.0 ~note:"n=0" ]
  else
    let sorted = Stat.sorted samples in
    let ms q = 1000.0 *. Stat.at ~sorted q in
    let tail =
      match Stat.tail_q n with
      | Some q ->
          metric (prefix ^ "_tail_ms") "ms" (ms q)
            ~note:(Printf.sprintf "p%g of n=%d (%d beyond)" (100.0 *. q) n
                     (Stat.beyond n q))
      | None ->
          metric (prefix ^ "_tail_ms") "ms" (ms 0.5)
            ~note:(Printf.sprintf "p50 of n=%d: no rung has %d beyond" n
                     Stat.min_beyond)
    in
    [ metric (prefix ^ "_p50_ms") "ms" (ms 0.5) ~note:(Printf.sprintf "p50 of n=%d" n);
      tail ]

type t = {
  violations : string list;
  attempted : int;
  failed : int;
  metrics : metric list;
      (** End-to-end metrics of a timed run, per-layer ones of a traced
          run. *)
  extra : metric list;  (** Printed and kept, not gated. *)
  facts : (string * string) list;
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s = Vp_observe.Json.(to_string (String s))

(* The result line, printed last: exactly correct, attempted, failed
   and metrics — every value with all its digits. *)
let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun x ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string x.name)
          (json_number x.value) (json_string x.unit_))
      metrics
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct attempted failed (String.concat "," m)

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun x ->
      Printf.printf "  %-34s %18.6f %-6s %s\n" x.name x.value x.unit_ x.note)
    metrics

(* The detail file: facts, every metric with its note, violations. *)
let write_detail path t =
  let obj kvs =
    "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) kvs) ^ "}"
  in
  let metric_json x =
    obj
      [
        ("value", json_number x.value);
        ("unit", json_string x.unit_);
        ("note", json_string x.note);
      ]
  in
  let section ms = obj (List.map (fun x -> (x.name, metric_json x)) ms) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (obj
           [
             ("facts", obj (List.map (fun (k, v) -> (k, json_string v)) t.facts));
             ("attempted", string_of_int t.attempted);
             ("failed", string_of_int t.failed);
             ( "violations",
               "[" ^ String.concat "," (List.map json_string t.violations) ^ "]" );
             ("metrics", section t.metrics);
             ("extra", section t.extra);
           ]);
      output_char oc '\n')
