open Vp_core

(* Where a file's row ranks live: fixed-stride files (plain, dictionary)
   need only the constant rows-per-block — O(1) metadata even at SF100 —
   while variable-stride files carry explicit per-block tables. *)
type rowmap =
  | Fixed of int  (** rows per full block *)
  | Explicit of { first : int array; rows : int array }

type storage =
  | Blocks of Bytes.t array  (** encoded block images (materialized) *)
  | Virtual  (** accounting-only: block geometry without the bytes *)

type t = {
  group : Attr_set.t;
  codec : Codec.t;
  block_size : int;
  storage : storage;
  rowmap : rowmap;
  block_count : int;
  row_count : int;
  payload : int;
}

let group f = f.group

let codec f = f.codec

let block_count f = f.block_count

let row_count f = f.row_count

let bytes_on_disk f = f.block_count * f.block_size

let payload_bytes f = f.payload

let is_virtual f = match f.storage with Virtual -> true | Blocks _ -> false

let first_row_of_block f b =
  if b < 0 || b >= f.block_count then
    invalid_arg (Printf.sprintf "Pfile.first_row_of_block: block %d" b);
  match f.rowmap with Fixed rpb -> b * rpb | Explicit m -> m.first.(b)

let rows_in_block f b =
  if b < 0 || b >= f.block_count then
    invalid_arg (Printf.sprintf "Pfile.rows_in_block: block %d" b);
  match f.rowmap with
  | Fixed rpb -> min rpb (f.row_count - (b * rpb))
  | Explicit m -> m.rows.(b)

let block_of_row f row =
  if row < 0 || row >= f.row_count then
    invalid_arg (Printf.sprintf "Pfile.block_of_row: row %d out of range" row);
  match f.rowmap with
  | Fixed rpb -> row / rpb
  | Explicit m ->
      (* Binary search over the block-first-row table. *)
      let lo = ref 0 and hi = ref (f.block_count - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if m.first.(mid) <= row then lo := mid else hi := mid - 1
      done;
      !lo

let blocks_spanning f ~first_row ~count =
  if f.row_count = 0 || count <= 0 then (0, 0)
  else begin
    let first_row = max 0 (min first_row (f.row_count - 1)) in
    let last_row = min (f.row_count - 1) (first_row + count - 1) in
    let b0 = block_of_row f first_row in
    let b1 = block_of_row f last_row in
    (b0, b1 - b0 + 1)
  end

(* --- building ---

   One builder per target file; rows arrive as full-table chunks and are
   projected onto the group. [retain:true] packs actual encoded bytes —
   byte-identical to the historic materialized build. [retain:false]
   tracks only block geometry (encoded widths, block boundaries); and
   when the codec has a fixed stride the geometry is value-independent,
   so feeding rows becomes unnecessary altogether ([needs_rows = false])
   and [finish] computes the file analytically — the fast path that
   makes SF100-class simulation O(1) per file. The streamed identity
   tests pin all three paths to the same block counts and payload. *)

type builder = {
  b_group : Attr_set.t;
  b_codec : Codec.t;
  b_block_size : int;
  b_retain : bool;
  b_rows : int;  (** declared total row count *)
  b_positions : int array;
  b_arity : int;  (** full-table row arity, for validation *)
  b_fixed : int option;  (** fixed encoded width, when the codec has one *)
  mutable fed : int;
  scratch : Buffer.t;  (** the row being encoded *)
  (* current (open) block *)
  buf : Buffer.t;
  mutable cur_len : int;
  mutable cur_first : int;
  mutable cur_count : int;
  (* finished blocks, newest first *)
  mutable blocks_rev : Bytes.t list;
  mutable first_rev : int list;
  mutable rows_rev : int list;
  mutable n_blocks : int;
  mutable payload : int;
}

let builder ~block_size ~codec ~retain ~rows table ~group =
  if Attr_set.is_empty group then invalid_arg "Pfile.builder: empty group";
  if rows < 0 then invalid_arg "Pfile.builder: negative row count";
  {
    b_group = group;
    b_codec = codec;
    b_block_size = block_size;
    b_retain = retain;
    b_rows = rows;
    b_positions = Array.of_list (Attr_set.to_list group);
    b_arity = Table.attribute_count table;
    b_fixed = Codec.fixed_row_width codec;
    fed = 0;
    scratch = Buffer.create (if retain then 256 else 0);
    buf = Buffer.create (if retain then block_size else 0);
    cur_len = 0;
    cur_first = 0;
    cur_count = 0;
    blocks_rev = [];
    first_rev = [];
    rows_rev = [];
    n_blocks = 0;
    payload = 0;
  }

let needs_rows b = b.b_retain || b.b_fixed = None

let flush b =
  if b.cur_count > 0 then begin
    if b.b_retain then begin
      let blk = Bytes.make b.b_block_size '\000' in
      Buffer.blit b.buf 0 blk 0 (Buffer.length b.buf);
      b.blocks_rev <- blk :: b.blocks_rev;
      Buffer.clear b.buf
    end;
    b.first_rev <- b.cur_first :: b.first_rev;
    b.rows_rev <- b.cur_count :: b.rows_rev;
    b.n_blocks <- b.n_blocks + 1;
    b.cur_len <- 0;
    b.cur_count <- 0
  end

let feed b chunk =
  if needs_rows b then
    Array.iter
      (fun row ->
        if Array.length row <> b.b_arity then
          invalid_arg "Pfile.build: row arity mismatch";
        let len =
          if b.b_retain then begin
            Buffer.clear b.scratch;
            Codec.add_projected b.b_codec b.scratch ~positions:b.b_positions row;
            Buffer.length b.scratch
          end
          else Codec.encoded_width b.b_codec ~positions:b.b_positions row
        in
        if len > b.b_block_size then
          invalid_arg
            (Printf.sprintf
               "Pfile.build: row of %d bytes exceeds the %d-byte block" len
               b.b_block_size);
        if b.cur_len + len > b.b_block_size then flush b;
        if b.cur_count = 0 then b.cur_first <- b.fed;
        if b.b_retain then Buffer.add_buffer b.buf b.scratch;
        b.cur_len <- b.cur_len + len;
        b.cur_count <- b.cur_count + 1;
        b.payload <- b.payload + len;
        b.fed <- b.fed + 1)
      chunk
  else b.fed <- b.fed + Array.length chunk

let ceil_div a n = (a + n - 1) / n

let finish b =
  if needs_rows b && b.fed <> b.b_rows then
    invalid_arg
      (Printf.sprintf "Pfile.finish: fed %d of %d declared rows" b.fed
         b.b_rows);
  let n_rows = b.b_rows in
  if needs_rows b then begin
    flush b;
    let codec =
      if n_rows = 0 then b.b_codec
      else
        Codec.with_avg_row_width b.b_codec
          (float_of_int b.payload /. float_of_int n_rows)
    in
    {
      group = b.b_group;
      codec;
      block_size = b.b_block_size;
      storage =
        (if b.b_retain then Blocks (Array.of_list (List.rev b.blocks_rev))
         else Virtual);
      rowmap =
        Explicit
          {
            first = Array.of_list (List.rev b.first_rev);
            rows = Array.of_list (List.rev b.rows_rev);
          };
      block_count = b.n_blocks;
      row_count = n_rows;
      payload = b.payload;
    }
  end
  else begin
    (* Value-independent geometry: a fixed-width row stream packs exactly
       floor(block / width) rows per block — identical to the greedy
       packing of the encode path. *)
    let w = match b.b_fixed with Some w -> w | None -> assert false in
    if w > b.b_block_size then
      invalid_arg
        (Printf.sprintf
           "Pfile.build: row of %d bytes exceeds the %d-byte block" w
           b.b_block_size);
    let rpb = b.b_block_size / w in
    let blocks = if n_rows = 0 then 0 else ceil_div n_rows rpb in
    let payload = n_rows * w in
    let codec =
      if n_rows = 0 then b.b_codec
      else Codec.with_avg_row_width b.b_codec (float_of_int w)
    in
    {
      group = b.b_group;
      codec;
      block_size = b.b_block_size;
      storage = Virtual;
      rowmap = Fixed rpb;
      block_count = blocks;
      row_count = n_rows;
      payload;
    }
  end

let build ~block_size ~codec_kind table ~group rows =
  if Attr_set.is_empty group then invalid_arg "Pfile.build: empty group";
  let positions = Array.of_list (Attr_set.to_list group) in
  let attrs = Array.to_list (Array.map (Table.attribute table) positions) in
  (* Column-major projection for codec training. *)
  let column_major =
    Array.map
      (fun p ->
        Array.map
          (fun row ->
            if Array.length row <> Table.attribute_count table then
              invalid_arg "Pfile.build: row arity mismatch";
            row.(p))
          rows)
      positions
  in
  let codec = Codec.train codec_kind attrs column_major in
  let b =
    builder ~block_size ~codec ~retain:true ~rows:(Array.length rows) table
      ~group
  in
  feed b rows;
  finish b

let train_stream codec_kind table ~group source =
  let positions = Array.of_list (Attr_set.to_list group) in
  let attrs = Array.to_list (Array.map (Table.attribute table) positions) in
  match codec_kind with
  | Codec.Plain | Codec.Varlen ->
      (* Data-independent: train on empty columns (validation happens at
         encode/width time). *)
      Codec.train codec_kind attrs
        (Array.map (fun _ -> [||]) positions)
  | Codec.Dictionary ->
      let tb = Codec.Train.create codec_kind attrs in
      Vp_stream.Source.iter source (fun ~first_row:_ chunk ->
          Array.iter
            (fun row ->
              Codec.Train.feed tb ~positions row)
            chunk);
      Codec.Train.finish tb

let build_stream ~block_size ~codec_kind ?(retain = true) table ~group source
    =
  if Attr_set.is_empty group then invalid_arg "Pfile.build: empty group";
  let codec = train_stream codec_kind table ~group source in
  let b =
    builder ~block_size ~codec ~retain
      ~rows:(Vp_stream.Source.row_count source)
      table ~group
  in
  if needs_rows b then
    Vp_stream.Source.iter source (fun ~first_row:_ chunk -> feed b chunk);
  finish b

(* The one block walk: rows before [first_row] in the first block are
   stepped over with an all-skip mask (a variable stride has no other
   way to find a row), rows in range are handed to the projected
   decoder, and the walk stops at the last requested row. *)
let fold f ~wanted ~first_row ~count ~init step =
  let blocks =
    match f.storage with
    | Blocks blocks -> blocks
    | Virtual -> invalid_arg "Pfile.fold: virtual (accounting-only) file"
  in
  let acc = ref init in
  let first_row = max 0 first_row in
  let last_row = min (f.row_count - 1) (first_row + count - 1) in
  if first_row <= last_row then begin
    let skip = Array.map (fun _ -> false) wanted in
    let bi = ref (block_of_row f first_row) in
    let r = ref (first_row_of_block f !bi) in
    while !r <= last_row do
      let block = blocks.(!bi) in
      let stop = min last_row (!r + rows_in_block f !bi - 1) in
      let pos = ref 0 in
      while !r <= stop do
        let row = !r in
        pos :=
          if row < first_row then
            Codec.decode_projected f.codec ~wanted:skip block ~pos:!pos
              (fun _ _ -> ())
          else
            Codec.decode_projected f.codec ~wanted block ~pos:!pos (fun c v ->
                acc := step !acc ~row c v);
        incr r
      done;
      incr bi
    done
  end;
  !acc
