(** CRC-32 (IEEE 802.3), as used by zip and png.  Detects torn pages and
    corrupted WAL records in the storage engine. *)

val bytes : ?pos:int -> ?len:int -> Bytes.t -> int
(** Checksum of a byte range (whole buffer by default).  The result fits
    in 32 bits.  Raises [Invalid_argument] when the range is not within
    the buffer. *)

val string : ?pos:int -> ?len:int -> string -> int

val update : int -> Bytes.t -> pos:int -> len:int -> int
(** Incremental form: extend a previous checksum (its low 32 bits) with
    more bytes; [update (update 0 b ~pos ~len:k) b ~pos:(pos + k)
    ~len:(len - k)] equals [update 0 b ~pos ~len].  Bounds as for
    {!bytes}. *)
