open Vp_core

let disk =
  Vp_cost.Disk.make ~block_size:4096 ~buffer_size:(Vp_cost.Disk.mb 0.25) ()

let gen = Vp_datagen.Rowgen.create ()

let customer = Vp_benchmarks.Tpch.table ~sf:0.001 "customer"

let customer_rows = lazy (Vp_datagen.Rowgen.rows gen customer)

let customer_source =
  lazy (Vp_stream.Source.of_rows customer (Lazy.force customer_rows))

(* --- Device --- *)

let test_device_accounting () =
  let d = Vp_storage.Device.create disk in
  Vp_storage.Device.read d ~file:0 ~first_block:0 ~count:10;
  let s = Vp_storage.Device.stats d in
  Alcotest.(check int) "blocks" 10 s.blocks_read;
  Alcotest.(check int) "one seek" 1 s.seeks;
  Alcotest.(check (Testutil.close ~eps:1e-12 ()))
    "elapsed"
    (disk.Vp_cost.Disk.seek_time
    +. (10.0 *. 4096.0 /. disk.Vp_cost.Disk.read_bandwidth))
    s.elapsed

let test_device_zero_read_free () =
  let d = Vp_storage.Device.create disk in
  Vp_storage.Device.read d ~file:0 ~first_block:0 ~count:0;
  let s = Vp_storage.Device.stats d in
  Alcotest.(check int) "no seek" 0 s.seeks;
  Alcotest.(check (float 0.0)) "no time" 0.0 s.elapsed

let test_device_reset () =
  let d = Vp_storage.Device.create disk in
  Vp_storage.Device.write d ~file:1 ~first_block:0 ~count:5;
  Vp_storage.Device.reset d;
  let s = Vp_storage.Device.stats d in
  Alcotest.(check int) "cleared" 0 s.blocks_written

(* --- Codecs --- *)

let group_attrs = [ Attribute.make "k" Attribute.Int32;
                    Attribute.make "v" (Attribute.Varchar 20) ]

let sample_columns =
  [|
    Array.init 50 (fun i -> Value.Int (i * 3));
    Array.init 50 (fun i -> Value.Str (Printf.sprintf "val%d" (i mod 7)));
  |]

let roundtrip kind =
  let codec = Vp_storage.Codec.train kind group_attrs sample_columns in
  for i = 0 to 49 do
    let row = [| sample_columns.(0).(i); sample_columns.(1).(i) |] in
    let encoded = Vp_storage.Codec.encode_row codec row in
    let decoded, consumed = Vp_storage.Codec.decode_row codec encoded ~pos:0 in
    Alcotest.(check int)
      (Printf.sprintf "%s row %d consumed" (Vp_storage.Codec.kind_name kind) i)
      (Bytes.length encoded) consumed;
    Alcotest.(check bool)
      (Printf.sprintf "%s row %d values" (Vp_storage.Codec.kind_name kind) i)
      true
      (Array.for_all2 Value.equal row decoded)
  done

let test_codec_roundtrips () =
  List.iter roundtrip
    [ Vp_storage.Codec.Plain; Vp_storage.Codec.Dictionary; Vp_storage.Codec.Varlen ]

let test_codec_widths () =
  let plain = Vp_storage.Codec.train Vp_storage.Codec.Plain group_attrs sample_columns in
  Alcotest.(check (option int)) "plain fixed" (Some 24)
    (Vp_storage.Codec.fixed_row_width plain);
  let dict =
    Vp_storage.Codec.train Vp_storage.Codec.Dictionary group_attrs sample_columns
  in
  (* 7 distinct strings -> 1-byte codes; 4 + 1 = 5. *)
  Alcotest.(check (option int)) "dict fixed" (Some 5)
    (Vp_storage.Codec.fixed_row_width dict);
  let varlen =
    Vp_storage.Codec.train Vp_storage.Codec.Varlen group_attrs sample_columns
  in
  Alcotest.(check (option int)) "varlen variable" None
    (Vp_storage.Codec.fixed_row_width varlen)

let test_codec_negative_varint () =
  let attrs = [ Attribute.make "x" Attribute.Int32 ] in
  let cols = [| [| Value.Int (-12345) |] |] in
  let codec = Vp_storage.Codec.train Vp_storage.Codec.Varlen attrs cols in
  let encoded = Vp_storage.Codec.encode_row codec [| Value.Int (-12345) |] in
  let decoded, _ = Vp_storage.Codec.decode_row codec encoded ~pos:0 in
  Alcotest.(check bool) "negative int roundtrip" true
    (Value.equal (Value.Int (-12345)) decoded.(0))

let test_codec_decode_costs_ordered () =
  let open Vp_storage.Codec in
  Alcotest.(check bool) "plain cheapest" true
    (decode_ns_per_value Plain ~in_group:false
    < decode_ns_per_value Dictionary ~in_group:false);
  Alcotest.(check bool) "varlen in group most expensive" true
    (decode_ns_per_value Varlen ~in_group:true
    > decode_ns_per_value Varlen ~in_group:false)

(* --- Pfile --- *)

let build_pfile ?(codec = Vp_storage.Codec.Plain) group =
  Vp_storage.Pfile.build ~block_size:4096 ~codec_kind:codec customer
    ~group:(Attr_set.of_list group)
    (Lazy.force customer_rows)

let test_pfile_accounting () =
  let f = build_pfile [ 0; 5 ] in
  Alcotest.(check int) "rows" 150 (Vp_storage.Pfile.row_count f);
  (* 12 bytes per row, 341 rows/block -> 1 block. *)
  Alcotest.(check int) "blocks" 1 (Vp_storage.Pfile.block_count f);
  Alcotest.(check int) "payload" (150 * 12) (Vp_storage.Pfile.payload_bytes f)

(* Rows [first_row, first_row+count) rebuilt from the all-wanted fold. *)
let read_rows f ~first_row ~count =
  let arity = Attr_set.cardinal (Vp_storage.Pfile.group f) in
  Vp_storage.Pfile.fold f ~wanted:(Array.make arity true) ~first_row ~count
    ~init:[] (fun acc ~row _ v ->
      match acc with
      | (r, vs) :: rest when r = row -> (r, v :: vs) :: rest
      | _ -> (row, [ v ]) :: acc)
  |> List.rev_map (fun (_, vs) -> Array.of_list (List.rev vs))
  |> Array.of_list

let test_pfile_read_rows () =
  let f = build_pfile [ 0 ] in
  let rows = read_rows f ~first_row:10 ~count:5 in
  Alcotest.(check int) "5 rows" 5 (Array.length rows);
  (* CustKey of row 10 is 11. *)
  Alcotest.(check bool) "right values" true
    (Value.equal (Value.Int 11) rows.(0).(0));
  let beyond = read_rows f ~first_row:148 ~count:10 in
  Alcotest.(check int) "clamped" 2 (Array.length beyond)

let test_pfile_block_of_row () =
  let f = build_pfile [ 7 ] (* Comment, 117 B -> 35 rows/block *) in
  Alcotest.(check int) "row 0" 0 (Vp_storage.Pfile.block_of_row f 0);
  Alcotest.(check int) "row 35" 1 (Vp_storage.Pfile.block_of_row f 35);
  Alcotest.(check int) "blocks for 150 rows" 5 (Vp_storage.Pfile.block_count f)

let test_pfile_varlen_blocks () =
  let f = build_pfile ~codec:Vp_storage.Codec.Varlen [ 7 ] in
  (* Varlen comments are unpadded, so fewer blocks than plain. *)
  Alcotest.(check bool) "compressed" true (Vp_storage.Pfile.block_count f <= 5);
  let rows = read_rows f ~first_row:0 ~count:150 in
  Alcotest.(check int) "all rows decodable" 150 (Array.length rows)

(* --- Database executor --- *)

let workload = Vp_benchmarks.Tpch.workload ~sf:0.001 "customer"

let build_db ?(codec = Vp_storage.Codec.Plain) layout =
  Vp_storage.Database.build ~disk ~codec customer (Lazy.force customer_source)
    layout

let test_database_checksums_layout_independent () =
  let n = Table.attribute_count customer in
  let reference =
    List.map
      (fun (r : Vp_storage.Database.query_result) -> r.checksum)
      (fst (Vp_storage.Database.run_workload (build_db (Partitioning.row n)) workload))
  in
  List.iter
    (fun layout ->
      let results, _ =
        Vp_storage.Database.run_workload (build_db layout) workload
      in
      List.iter2
        (fun expected (r : Vp_storage.Database.query_result) ->
          Alcotest.(check int) "checksum" expected r.checksum)
        reference results)
    [
      Partitioning.column n;
      Partitioning.of_names customer
        [ [ "CustKey"; "Name" ]; [ "Address"; "NationKey"; "Phone" ];
          [ "AcctBal"; "MktSegment"; "Comment" ] ];
    ]

let test_database_checksums_codec_independent () =
  let n = Table.attribute_count customer in
  let layout = Partitioning.column n in
  let baseline =
    List.map
      (fun (r : Vp_storage.Database.query_result) -> r.checksum)
      (fst (Vp_storage.Database.run_workload (build_db layout) workload))
  in
  List.iter
    (fun codec ->
      let results, _ =
        Vp_storage.Database.run_workload (build_db ~codec layout) workload
      in
      List.iter2
        (fun expected (r : Vp_storage.Database.query_result) ->
          Alcotest.(check int)
            (Vp_storage.Codec.kind_name codec)
            expected r.checksum)
        baseline results)
    [ Vp_storage.Codec.Dictionary; Vp_storage.Codec.Varlen ]

let test_simulator_matches_cost_model () =
  (* For the Plain codec, per-query simulated I/O must equal the analytic
     model exactly (same block math, same buffer split, same seek rule). *)
  let n = Table.attribute_count customer in
  List.iter
    (fun layout ->
      let db = build_db layout in
      Array.iter
        (fun q ->
          let r = Vp_storage.Database.run_query db q in
          let expected = Vp_cost.Io_model.query_cost disk customer layout q in
          Alcotest.(check (Testutil.close ~eps:1e-9 ()))
            (Query.name q) expected r.io.Vp_storage.Device.elapsed)
        (Workload.queries workload))
    [ Partitioning.row n; Partitioning.column n ]

let test_dictionary_compresses () =
  let n = Table.attribute_count customer in
  let plain = build_db (Partitioning.column n) in
  let dict = build_db ~codec:Vp_storage.Codec.Dictionary (Partitioning.column n) in
  Alcotest.(check bool) "dict smaller" true
    (Vp_storage.Database.bytes_on_disk dict
    < Vp_storage.Database.bytes_on_disk plain)

let test_load_stats_counted () =
  let db = build_db (Partitioning.row (Table.attribute_count customer)) in
  let s = Vp_storage.Database.load_stats db in
  Alcotest.(check bool) "wrote blocks" true (s.blocks_written > 0);
  Alcotest.(check bool) "took time" true (s.elapsed > 0.0)

let test_query_result_shape () =
  let n = Table.attribute_count customer in
  let db = build_db (Partitioning.column n) in
  let q = Workload.query workload 0 in
  let r = Vp_storage.Database.run_query db q in
  Alcotest.(check int) "rows out" 150 r.rows_out;
  Alcotest.(check int) "partitions = referenced columns"
    (Attr_set.cardinal (Query.references q))
    r.partitions_read;
  Alcotest.(check int) "values decoded"
    (150 * Attr_set.cardinal (Query.references q))
    r.values_decoded;
  Alcotest.(check bool) "cpu time positive" true (r.cpu_seconds > 0.0)

let suite =
  [
    Alcotest.test_case "device accounting" `Quick test_device_accounting;
    Alcotest.test_case "device zero read" `Quick test_device_zero_read_free;
    Alcotest.test_case "device reset" `Quick test_device_reset;
    Alcotest.test_case "codec roundtrips" `Quick test_codec_roundtrips;
    Alcotest.test_case "codec widths" `Quick test_codec_widths;
    Alcotest.test_case "codec negative varint" `Quick test_codec_negative_varint;
    Alcotest.test_case "codec decode costs" `Quick test_codec_decode_costs_ordered;
    Alcotest.test_case "pfile accounting" `Quick test_pfile_accounting;
    Alcotest.test_case "pfile read rows" `Quick test_pfile_read_rows;
    Alcotest.test_case "pfile block of row" `Quick test_pfile_block_of_row;
    Alcotest.test_case "pfile varlen" `Quick test_pfile_varlen_blocks;
    Alcotest.test_case "checksums layout independent" `Quick
      test_database_checksums_layout_independent;
    Alcotest.test_case "checksums codec independent" `Quick
      test_database_checksums_codec_independent;
    Alcotest.test_case "simulator matches cost model" `Quick
      test_simulator_matches_cost_model;
    Alcotest.test_case "dictionary compresses" `Quick test_dictionary_compresses;
    Alcotest.test_case "load stats" `Quick test_load_stats_counted;
    Alcotest.test_case "query result shape" `Quick test_query_result_shape;
  ]

(* --- Creation transform vs the analytic creation-time model --- *)

let test_creation_matches_model () =
  let layout =
    Partitioning.of_names customer
      [ [ "CustKey"; "Name" ]; [ "Address"; "NationKey"; "Phone" ];
        [ "AcctBal"; "MktSegment" ]; [ "Comment" ] ]
  in
  let r =
    Vp_storage.Creation.transform ~disk customer (Lazy.force customer_source)
      layout
  in
  let expected = Vp_cost.Io_model.creation_time disk customer layout in
  Alcotest.(check (Testutil.close ~eps:1e-9 ()))
    "simulated = analytic" expected r.io.Vp_storage.Device.elapsed;
  Alcotest.(check int) "wrote every partition block"
    r.written_blocks r.io.Vp_storage.Device.blocks_written;
  Alcotest.(check int) "read the whole source"
    r.source_blocks r.io.Vp_storage.Device.blocks_read

let test_creation_row_and_column () =
  let n = Table.attribute_count customer in
  List.iter
    (fun layout ->
      let r =
        Vp_storage.Creation.transform ~disk customer
          (Lazy.force customer_source) layout
      in
      let expected = Vp_cost.Io_model.creation_time disk customer layout in
      Alcotest.(check (Testutil.close ~eps:1e-9 ()))
        "simulated = analytic" expected r.io.Vp_storage.Device.elapsed)
    [ Partitioning.row n; Partitioning.column n ]

let suite =
  suite
  @ [
      Alcotest.test_case "creation matches model" `Quick
        test_creation_matches_model;
      Alcotest.test_case "creation row/column" `Quick
        test_creation_row_and_column;
    ]

(* --- Property: random tables roundtrip through every codec --- *)

let gen_random_table_and_rows =
  QCheck2.Gen.(
    let* n_cols = int_range 1 6 in
    let* n_rows = int_range 0 40 in
    let* seed = int_range 0 1_000_000 in
    let attrs =
      List.init n_cols (fun i ->
          Vp_core.Attribute.make
            (Printf.sprintf "c%d" i)
            (match i mod 4 with
            | 0 -> Vp_core.Attribute.Int32
            | 1 -> Vp_core.Attribute.Decimal
            | 2 -> Vp_core.Attribute.Date
            | _ -> Vp_core.Attribute.Varchar 24))
    in
    let table =
      Vp_core.Table.make ~name:"prop" ~attributes:attrs
        ~row_count:(max 1 n_rows)
    in
    let g = Vp_datagen.Prng.create (Int64.of_int seed) in
    let rows =
      Array.init (max 1 n_rows) (fun _ ->
          Array.of_list
            (List.map
               (fun a ->
                 match Vp_core.Attribute.datatype a with
                 | Vp_core.Attribute.Int32 ->
                     Value.Int (Vp_datagen.Prng.int_in g (-1000) 100000)
                 | Vp_core.Attribute.Date ->
                     Value.Int (Vp_datagen.Prng.int_in g 8000 11000)
                 | Vp_core.Attribute.Decimal ->
                     Value.Num (Vp_datagen.Prng.float g 1e6)
                 | Vp_core.Attribute.Char _ | Vp_core.Attribute.Varchar _ ->
                     Value.Str
                       (Vp_datagen.Text.sentence g
                          ~max_len:(Vp_datagen.Prng.int_in g 0 24)))
               attrs))
    in
    return (table, rows))

let prop_pfile_roundtrip_random =
  QCheck2.Test.make ~name:"pfile roundtrip on random tables/codecs" ~count:60
    QCheck2.Gen.(pair gen_random_table_and_rows (int_range 0 2))
    (fun ((table, rows), codec_idx) ->
      let codec_kind =
        match codec_idx with
        | 0 -> Vp_storage.Codec.Plain
        | 1 -> Vp_storage.Codec.Dictionary
        | _ -> Vp_storage.Codec.Varlen
      in
      let n = Table.attribute_count table in
      let f =
        Vp_storage.Pfile.build ~block_size:512 ~codec_kind table
          ~group:(Attr_set.full n) rows
      in
      let back =
        read_rows f ~first_row:0 ~count:(Array.length rows)
      in
      Array.length back = Array.length rows
      && Array.for_all2
           (fun a b -> Array.for_all2 Value.equal a b)
           rows back)

let suite =
  suite @ [ Testutil.qtest prop_pfile_roundtrip_random ]

(* --- Property: the projected decoder agrees with the full decode --- *)

let gen_projected_case =
  QCheck2.Gen.(
    let gen_type =
      oneof
        [
          return Attribute.Int32;
          return Attribute.Date;
          return Attribute.Decimal;
          map (fun w -> Attribute.Char w) (int_range 1 12);
          map (fun w -> Attribute.Varchar w) (int_range 1 12);
        ]
    in
    let gen_value = function
      | Attribute.Int32 ->
          map (fun i -> Value.Int i) (int_range (-0x8000_0000) 0x7FFF_FFFF)
      | Attribute.Date ->
          map (fun i -> Value.Int i) (int_range (-100_000) 100_000)
      | Attribute.Decimal -> map (fun f -> Value.Num f) float
      | Attribute.Char w | Attribute.Varchar w ->
          (* Empty strings and strings past the declared width included. *)
          map
            (fun s -> Value.Str s)
            (string_size ~gen:printable (int_range 0 (w + 8)))
    in
    let* types = list_size (int_range 1 8) gen_type in
    let* rows =
      list_size (int_range 1 12) (flatten_l (List.map gen_value types))
    in
    let* kind =
      oneofl
        Vp_storage.Codec.[ Plain; Dictionary; Varlen ]
    in
    let* wanted = flatten_l (List.map (fun _ -> bool) types) in
    return (types, rows, kind, wanted))

let prop_projected_decode =
  QCheck2.Test.make ~name:"projected decode = full decode at wanted columns"
    ~count:300 gen_projected_case (fun (types, rows, kind, wanted) ->
      let attrs =
        List.mapi (fun i t -> Attribute.make (Printf.sprintf "c%d" i) t) types
      in
      let rows = Array.of_list (List.map Array.of_list rows) in
      let wanted = Array.of_list wanted in
      let codec =
        Vp_storage.Codec.train kind attrs
          (Array.mapi (fun c _ -> Array.map (fun r -> r.(c)) rows) wanted)
      in
      (* Every row back to back in one buffer, so a wrong skip width
         also derails the rows after it. *)
      let bytes =
        Bytes.concat Bytes.empty
          (Array.to_list (Array.map (Vp_storage.Codec.encode_row codec) rows))
      in
      let full_pos = ref 0 and proj_pos = ref 0 in
      Array.for_all
        (fun _ ->
          let full, full_end =
            Vp_storage.Codec.decode_row codec bytes ~pos:!full_pos
          in
          let got = ref [] in
          let proj_end =
            Vp_storage.Codec.decode_projected codec ~wanted bytes ~pos:!proj_pos
              (fun c v -> got := (c, v) :: !got)
          in
          full_pos := full_end;
          proj_pos := proj_end;
          let expected =
            List.filter_map
              (fun c -> if wanted.(c) then Some (c, full.(c)) else None)
              (List.init (Array.length wanted) Fun.id)
          in
          proj_end = full_end && compare (List.rev !got) expected = 0)
        rows
      && !full_pos = Bytes.length bytes)

(* --- The scan kernel's output, pinned --- *)

(* Every [query_result] field of the orders workload at table7's scale
   factor, under both table7 codecs and its three layouts, digested (floats
   by their bits). The constant was recorded before the materialized scan
   became projection-only; any change to the simulated numbers shows
   here. *)
let scan_digest () =
  let module D = Vp_experiments.Exp_dbms in
  let full = Vp_benchmarks.Tpch.workload ~sf:D.sim_sf "orders" in
  let w = D.drop_excluded full in
  let table = Workload.table w in
  let source = Vp_stream.Source.of_rowgen gen table in
  let buf = Buffer.create 4096 in
  List.iter
    (fun codec ->
      List.iter
        (fun layout ->
          let db =
            Vp_storage.Database.build ~disk:D.sim_disk ~codec table source
              (D.layout_for layout full)
          in
          List.iter
            (fun (r : Vp_storage.Database.query_result) ->
              Printf.bprintf buf "%d %Ld %d %d %d %Ld %d %d %d\n" r.rows_out
                (Int64.bits_of_float r.io.Vp_storage.Device.elapsed)
                r.io.seeks r.io.blocks_read r.io.blocks_written
                (Int64.bits_of_float r.cpu_seconds)
                r.partitions_read r.values_decoded r.checksum)
            (fst (Vp_storage.Database.run_workload db w)))
        [ "Row"; "Column"; "HillClimb" ])
    [ Vp_storage.Codec.Varlen; Vp_storage.Codec.Dictionary ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_scan_output_pinned () =
  Alcotest.(check string)
    "orders scan digest" "e8999c5653fa2f548d82ff298c2b68c1" (scan_digest ())

let suite =
  suite
  @ [
      Testutil.qtest prop_projected_decode;
      Alcotest.test_case "scan output pinned" `Quick test_scan_output_pinned;
    ]
