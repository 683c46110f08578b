open Vp_core

(** Storage codecs for partition files.

    - [Plain]: the uncompressed fixed-slot encoding the cost model assumes
      (4-byte ints/dates, 8-byte decimals, strings padded to their declared
      width).
    - [Dictionary]: fixed-size codes — every string column is
      dictionary-encoded into the smallest byte width that covers its
      distinct values; numeric columns stay fixed. Rows keep a fixed size,
      so per-row addressing stays cheap (the paper's "dictionary
      compression" configuration in Table 7).
    - [Varlen]: variable-length encoding in the spirit of LZO/delta —
      varint integers, length-prefixed unpadded strings. Densest on disk,
      but rows lose their fixed stride, which makes tuple reconstruction
      inside multi-column groups CPU-expensive (the paper's "default
      compression" configuration). *)

type kind = Plain | Dictionary | Varlen

val kind_name : kind -> string

type column = {
  attr : Attribute.t;
  dictionary : string array;  (** Decode table; empty unless dict-coded. *)
  code_width : int;  (** Encoded byte width; 0 for variable width. *)
}

type t
(** An encoder/decoder for one column group, trained on the data. *)

val train : kind -> Attribute.t list -> Value.t array array -> t
(** [train kind attrs column_major] builds a codec for a group whose
    [i]-th column holds the values [column_major.(i)] (one per row).
    @raise Invalid_argument on shape mismatch or value/type mismatch. *)

(** Streaming trainer: feed rows (in group column order) chunk by chunk;
    {!Train.finish} yields a codec identical to {!train} on the
    materialized projection — dictionaries collect distinct values and
    are sorted, so the result is independent of feed order. Only
    [Dictionary] actually needs the data pass; [Plain]/[Varlen] training
    is data-independent (bar validation). *)
module Train : sig
  type builder

  val create : kind -> Attribute.t list -> builder

  val feed : builder -> positions:int array -> Value.t array -> unit
  (** One row: the group's values are [row.(positions.(i))], as for
      {!add_projected}.
      @raise Invalid_argument on arity or value/type mismatch. *)

  val finish : builder -> t
end

val bytes_for_cardinality : int -> int
(** Smallest fixed code width (1-4 bytes) covering that many distinct
    values — the dictionary column width rule, exposed for the
    {!Format} cost model. *)

val kind : t -> kind

val columns : t -> column list

val add_projected : t -> Buffer.t -> positions:int array -> Value.t array -> unit
(** [add_projected c buf ~positions row] appends the encoding of the
    group row [row.(positions.(0)), row.(positions.(1)), ...] to [buf] —
    the builders' path: full-table rows go in, no projected array is
    allocated.
    @raise Invalid_argument if [positions] disagrees with the codec's
    arity or a value does not match its column type. *)

val encode_row : t -> Value.t array -> Bytes.t
(** Encodes one row (values in group column order). *)

val encoded_width : t -> positions:int array -> Value.t array -> int
(** The number of bytes {!add_projected} would append, without
    allocating them — the accounting-only path of the streaming storage
    builders. Validates like {!add_projected}. *)

val decode_projected :
  t -> wanted:bool array -> Bytes.t -> pos:int -> (int -> Value.t -> unit) -> int
(** [decode_projected c ~wanted b ~pos f] walks the row starting at
    [pos]: for every column [i] with [wanted.(i)] it decodes the value and
    calls [f i v] (in column order); every other column is skipped by its
    encoded width (fixed slot, dictionary code, varint or length-prefixed
    bytes) without building a value. Returns the position after the row.
    @raise Invalid_argument if [wanted] disagrees with the codec's arity. *)

val decode_row : t -> Bytes.t -> pos:int -> Value.t array * int
(** [decode_row c b ~pos] is {!decode_projected} with every column wanted,
    collected into an array: the values and the position after the row.
    Decoding is exact for [Plain]/[Dictionary]/[Varlen] except that
    [Plain] truncates strings longer than the declared width. *)

val fixed_row_width : t -> int option
(** [Some w] for the fixed-stride codecs, [None] for [Varlen]. *)

val avg_row_width : t -> float
(** Mean encoded row size over the training data (= the fixed width when
    there is one). *)

val with_avg_row_width : t -> float -> t
(** Records the measured mean encoded row size (set by {!Pfile.build} for
    [Varlen] files). *)

val decode_ns_per_value : kind -> in_group:bool -> float
(** CPU cost model: nanoseconds to decode one value, higher for [Varlen]
    and higher still when the value sits inside a multi-column group
    ([in_group]), where the variable stride forces a sequential walk —
    the mechanism behind Table 7's column-vs-column-group gap. *)
