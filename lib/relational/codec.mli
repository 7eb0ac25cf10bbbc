(** Binary serialization of values, tuples, and schemas — the wire format
    the storage engine writes into slotted pages.

    Little-endian and length-prefixed; every value carries a one-byte type
    tag, so records decode without consulting the catalog.  Strings are
    limited to 65535 bytes (they must fit inside a page record). *)

exception Corrupt of string
(** Raised by every reader on malformed input. *)

val add_value : Buffer.t -> Value.t -> unit
val read_value : string -> int ref -> Value.t

val add_tuple : Buffer.t -> Tuple.t -> unit
val tuple_to_string : Tuple.t -> string
val tuple_of_bytes : Bytes.t -> off:int -> len:int -> Tuple.t
(** Decode the tuple record held in the [len] bytes at [off], in place
    (the record is not copied first; string values are).  Raises
    {!Corrupt} on malformed input or trailing bytes inside the range,
    [Invalid_argument] when the range is not within the buffer. *)

val tuple_of_string : string -> Tuple.t
(** {!tuple_of_bytes} over the whole string. *)

val add_schema : Buffer.t -> Schema.t -> unit
val read_schema : string -> int ref -> Schema.t
val schema_to_string : Schema.t -> string
val schema_of_string : string -> Schema.t
