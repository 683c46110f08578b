open Vp_core

type kind = Plain | Dictionary | Varlen

let kind_name = function
  | Plain -> "plain"
  | Dictionary -> "dictionary"
  | Varlen -> "varlen"

type column = {
  attr : Attribute.t;
  dictionary : string array;
  code_width : int;
}

type t = { kind : kind; cols : column array; avg_row_width : float }

let kind c = c.kind

let columns c = Array.to_list c.cols

(* --- byte helpers --- *)

let put_fixed_int buf v width =
  for k = 0 to width - 1 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * k)) land 0xFF))
  done

let get_fixed_int b pos width =
  let v = ref 0 in
  for k = width - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (pos + k))
  done;
  !v

let put_padded buf s width =
  let len = min (String.length s) width in
  Buffer.add_substring buf s 0 len;
  for _ = len + 1 to width do
    Buffer.add_char buf '\000'
  done

let get_padded b pos width =
  let len = ref 0 in
  while !len < width && Bytes.get b (pos + !len) <> '\000' do
    incr len
  done;
  Bytes.sub_string b pos !len

let put_float buf f =
  let bits = Int64.bits_of_float f in
  for k = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * k)) land 0xFF))
  done

let get_float b pos = Int64.float_of_bits (Bytes.get_int64_le b pos)

(* Zig-zag varint (values can be any int). *)
let put_varint buf v =
  let z = (v lsl 1) lxor (v asr 62) in
  let rec go z =
    if z land lnot 0x7F = 0 then Buffer.add_char buf (Char.chr z)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (z land 0x7F)));
      go (z lsr 7)
    end
  in
  go z

let get_varint b pos =
  let rec go pos shift acc =
    let byte = Char.code (Bytes.get b pos) in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 = 0 then (acc, pos + 1)
    else go (pos + 1) (shift + 7) acc
  in
  let z, pos' = go pos 0 0 in
  ((z lsr 1) lxor (-(z land 1)), pos')

(* --- training --- *)

let bytes_for_cardinality n =
  if n <= 0x100 then 1 else if n <= 0x10000 then 2 else if n <= 0x1000000 then 3 else 4

(* Column metadata shared by the one-shot and streaming trainers;
   [dict c] yields the sorted distinct values of string column [c] (only
   consulted for Dictionary string columns). *)
let columns_of requested attrs ~dict =
  Array.mapi
    (fun c attr ->
      match (requested, Attribute.datatype attr) with
      | Dictionary, (Attribute.Char _ | Attribute.Varchar _) ->
          let dictionary = dict c in
          let dictionary = if dictionary = [||] then [| "" |] else dictionary in
          {
            attr;
            dictionary;
            code_width = bytes_for_cardinality (Array.length dictionary);
          }
      | (Plain | Dictionary), (Attribute.Int32 | Attribute.Date) ->
          { attr; dictionary = [||]; code_width = 4 }
      | (Plain | Dictionary), Attribute.Decimal ->
          { attr; dictionary = [||]; code_width = 8 }
      | Plain, (Attribute.Char w | Attribute.Varchar w) ->
          { attr; dictionary = [||]; code_width = w }
      | Varlen, _ -> { attr; dictionary = [||]; code_width = 0 })
    attrs

let train requested attrs column_major =
  let attrs = Array.of_list attrs in
  if Array.length attrs <> Array.length column_major then
    invalid_arg "Codec.train: attribute/column count mismatch";
  Array.iteri
    (fun c col ->
      Array.iter
        (fun v ->
          if not (Value.matches (Attribute.datatype attrs.(c)) v) then
            invalid_arg
              (Printf.sprintf "Codec.train: value/type mismatch in column %s"
                 (Attribute.name attrs.(c))))
        col)
    column_major;
  let dict c =
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun v ->
        match v with
        | Value.Str s -> Hashtbl.replace seen s ()
        | Value.Int _ | Value.Num _ -> ())
      column_major.(c);
    Hashtbl.fold (fun s () acc -> s :: acc) seen []
    |> List.sort String.compare |> Array.of_list
  in
  { kind = requested; cols = columns_of requested attrs ~dict; avg_row_width = 0.0 }

(* Streaming trainer: one pass over full-table chunks collects exactly
   what [train] collects (distinct strings of dictionary columns), so
   [finish] yields a codec identical to training on the materialized
   column-major projection — dictionaries are sorted, hence insertion-
   order independent (property-tested against [train]). *)
module Train = struct
  type builder = {
    requested : kind;
    t_attrs : Attribute.t array;
    seen : (string, unit) Hashtbl.t array;  (** one per group column *)
  }

  let create requested attrs =
    let t_attrs = Array.of_list attrs in
    {
      requested;
      t_attrs;
      seen = Array.map (fun _ -> Hashtbl.create 64) t_attrs;
    }

  let feed b ~positions row =
    if Array.length positions <> Array.length b.t_attrs then
      invalid_arg "Codec.Train.feed: arity mismatch";
    Array.iteri
      (fun c p ->
        let v = row.(p) in
        if not (Value.matches (Attribute.datatype b.t_attrs.(c)) v) then
          invalid_arg
            (Printf.sprintf "Codec.train: value/type mismatch in column %s"
               (Attribute.name b.t_attrs.(c)));
        match (b.requested, v) with
        | Dictionary, Value.Str s -> Hashtbl.replace b.seen.(c) s ()
        | _, (Value.Int _ | Value.Num _ | Value.Str _) -> ())
      positions

  let finish b =
    let dict c =
      Hashtbl.fold (fun s () acc -> s :: acc) b.seen.(c) []
      |> List.sort String.compare |> Array.of_list
    in
    {
      kind = b.requested;
      cols = columns_of b.requested b.t_attrs ~dict;
      avg_row_width = 0.0;
    }
end

let dict_code col s =
  (* Binary search in the sorted dictionary. *)
  let lo = ref 0 and hi = ref (Array.length col.dictionary - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare col.dictionary.(mid) s in
    if c = 0 then begin
      found := mid;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then
    invalid_arg (Printf.sprintf "Codec: value %S not in dictionary" s);
  !found

(* Encodes [row.(positions.(c))] for every codec column [c] — the
   projection happens here, so builders feed full-table rows without
   allocating a projected array. *)
let add_projected codec buf ~positions row =
  if Array.length positions <> Array.length codec.cols then
    invalid_arg "Codec.encode_row: arity mismatch";
  Array.iteri
    (fun c p ->
      let col = codec.cols.(c) in
      match (codec.kind, Attribute.datatype col.attr, row.(p)) with
      | (Plain | Dictionary), (Attribute.Int32 | Attribute.Date), Value.Int i ->
          put_fixed_int buf i 4
      | (Plain | Dictionary), Attribute.Decimal, Value.Num f -> put_float buf f
      | Plain, (Attribute.Char w | Attribute.Varchar w), Value.Str s ->
          put_padded buf s w
      | Dictionary, (Attribute.Char _ | Attribute.Varchar _), Value.Str s ->
          put_fixed_int buf (dict_code col s) col.code_width
      | Varlen, (Attribute.Int32 | Attribute.Date), Value.Int i ->
          put_varint buf i
      | Varlen, Attribute.Decimal, Value.Num f -> put_float buf f
      | Varlen, (Attribute.Char _ | Attribute.Varchar _), Value.Str s ->
          put_varint buf (String.length s);
          Buffer.add_string buf s
      | _, _, (Value.Int _ | Value.Num _ | Value.Str _) ->
          invalid_arg "Codec.encode_row: value/type mismatch")
    positions

let encode_row codec row =
  let buf = Buffer.create 64 in
  add_projected codec buf ~positions:(Array.init (Array.length row) Fun.id) row;
  Buffer.to_bytes buf

let varint_len v =
  let z = (v lsl 1) lxor (v asr 62) in
  let rec go z n = if z land lnot 0x7F = 0 then n else go (z lsr 7) (n + 1) in
  go z 1

(* Byte length [add_projected] would append, without allocating — the
   accounting-only path of the streaming builders. Validates like
   [add_projected]. *)
let encoded_width codec ~positions row =
  if Array.length positions <> Array.length codec.cols then
    invalid_arg "Codec.encode_row: arity mismatch";
  let total = ref 0 in
  Array.iteri
    (fun c p ->
      let col = codec.cols.(c) in
      let w =
        match (codec.kind, Attribute.datatype col.attr, row.(p)) with
        | (Plain | Dictionary), (Attribute.Int32 | Attribute.Date), Value.Int _
          ->
            4
        | (Plain | Dictionary), Attribute.Decimal, Value.Num _ -> 8
        | Plain, (Attribute.Char w | Attribute.Varchar w), Value.Str _ -> w
        | Dictionary, (Attribute.Char _ | Attribute.Varchar _), Value.Str s ->
            ignore (dict_code col s);
            col.code_width
        | Varlen, (Attribute.Int32 | Attribute.Date), Value.Int i ->
            varint_len i
        | Varlen, Attribute.Decimal, Value.Num _ -> 8
        | Varlen, (Attribute.Char _ | Attribute.Varchar _), Value.Str s ->
            varint_len (String.length s) + String.length s
        | _, _, (Value.Int _ | Value.Num _ | Value.Str _) ->
            invalid_arg "Codec.encode_row: value/type mismatch"
      in
      total := !total + w)
    positions;
  !total

let skip_varint b pos =
  let rec go pos =
    if Char.code (Bytes.get b pos) land 0x80 = 0 then pos + 1 else go (pos + 1)
  in
  go pos

(* One walk over an encoded row: wanted columns are decoded and handed to
   [f] in column order, the others are stepped over by their encoded
   width without building a value. *)
let decode_projected codec ~wanted b ~pos f =
  let n = Array.length codec.cols in
  if Array.length wanted <> n then
    invalid_arg "Codec.decode_projected: mask/arity mismatch";
  let pos = ref pos in
  for c = 0 to n - 1 do
    let col = codec.cols.(c) in
    let want = wanted.(c) in
    match (codec.kind, Attribute.datatype col.attr) with
    | (Plain | Dictionary), (Attribute.Int32 | Attribute.Date) ->
        (* Sign-extend: the wire format is the value's low 32 bits. *)
        if want then f c (Value.Int (Int32.to_int (Bytes.get_int32_le b !pos)));
        pos := !pos + 4
    | (Plain | Dictionary | Varlen), Attribute.Decimal ->
        if want then f c (Value.Num (get_float b !pos));
        pos := !pos + 8
    | Plain, (Attribute.Char w | Attribute.Varchar w) ->
        if want then f c (Value.Str (get_padded b !pos w));
        pos := !pos + w
    | Dictionary, (Attribute.Char _ | Attribute.Varchar _) ->
        if want then
          f c (Value.Str col.dictionary.(get_fixed_int b !pos col.code_width));
        pos := !pos + col.code_width
    | Varlen, (Attribute.Int32 | Attribute.Date) ->
        if want then begin
          let v, p = get_varint b !pos in
          f c (Value.Int v);
          pos := p
        end
        else pos := skip_varint b !pos
    | Varlen, (Attribute.Char _ | Attribute.Varchar _) ->
        let len, p = get_varint b !pos in
        if want then f c (Value.Str (Bytes.sub_string b p len));
        pos := p + len
  done;
  !pos

let decode_row codec b ~pos =
  let n = Array.length codec.cols in
  let out = Array.make n (Value.Int 0) in
  let pos =
    decode_projected codec ~wanted:(Array.make n true) b ~pos (fun c v ->
        out.(c) <- v)
  in
  (out, pos)

let fixed_row_width codec =
  match codec.kind with
  | Varlen -> None
  | Plain | Dictionary ->
      Some
        (Array.fold_left
           (fun acc col ->
             acc
             +
             match Attribute.datatype col.attr with
             | Attribute.Int32 | Attribute.Date -> 4
             | Attribute.Decimal -> 8
             | Attribute.Char w | Attribute.Varchar w -> (
                 match codec.kind with
                 | Dictionary -> col.code_width
                 | Plain | Varlen -> w))
           0 codec.cols)

let avg_row_width codec =
  if codec.avg_row_width > 0.0 then codec.avg_row_width
  else match fixed_row_width codec with Some w -> float_of_int w | None -> 0.0

let with_avg_row_width codec w = { codec with avg_row_width = w }

(* Calibrated against Table 7's DBMS-X behaviour: decoding a value inside a
   multi-column group costs little extra while rows keep a fixed stride
   (plain, dictionary), but under variable-length encoding the executor
   must walk the segment value by value to reconstruct a tuple, which
   dominates — the reason the paper's column layout beats HillClimb's
   column groups under LZO-style compression. *)
let decode_ns_per_value kind ~in_group =
  match (kind, in_group) with
  | Plain, false -> 1.0
  | Plain, true -> 2.0
  | Dictionary, false -> 2.0
  | Dictionary, true -> 12.0
  | Varlen, false -> 4.0
  | Varlen, true -> 80.0
