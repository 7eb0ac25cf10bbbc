(* Binary serialization of values, tuples, and schemas — the wire format
   the storage engine writes into slotted pages.  Little-endian, length-
   prefixed, self-describing (each value carries a type tag), so a page
   record can be decoded without consulting the catalog. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- primitive writers ----------------------------------------------- *)

let add_u8 buf n = Buffer.add_uint8 buf (n land 0xff)
let add_u16 buf n = Buffer.add_uint16_le buf (n land 0xffff)
let add_i64 buf n = Buffer.add_int64_le buf (Int64.of_int n)

let add_bytes buf s =
  if String.length s > 0xffff then
    invalid_arg "Codec: string longer than 65535 bytes";
  add_u16 buf (String.length s);
  Buffer.add_string buf s

(* --- primitive readers (from bytes up to a limit, advancing a cursor) -- *)

(* Every reader works on a byte range [.., lim) of a buffer in place, so
   a page record decodes without being copied out first; the string
   readers below pass the whole string as the range. *)

let need lim pos n what =
  if !pos + n > lim then corrupt "truncated %s at offset %d" what !pos

let read_u8 b lim pos =
  need lim pos 1 "u8";
  let v = Bytes.get_uint8 b !pos in
  incr pos;
  v

let read_u16 b lim pos =
  need lim pos 2 "u16";
  let v = Bytes.get_uint16_le b !pos in
  pos := !pos + 2;
  v

let read_i64 b lim pos =
  need lim pos 8 "i64";
  let v = Int64.to_int (Bytes.get_int64_le b !pos) in
  pos := !pos + 8;
  v

let read_bytes b lim pos =
  let len = read_u16 b lim pos in
  need lim pos len "string body";
  let v = Bytes.sub_string b !pos len in
  pos := !pos + len;
  v

(* --- values ----------------------------------------------------------- *)

let tag_of_ty = function
  | Value.TInt -> 0
  | Value.TString -> 1
  | Value.TFloat -> 2
  | Value.TBool -> 3

let ty_of_tag = function
  | 0 -> Value.TInt
  | 1 -> Value.TString
  | 2 -> Value.TFloat
  | 3 -> Value.TBool
  | n -> corrupt "unknown type tag %d" n

let add_value buf v =
  add_u8 buf (tag_of_ty (Value.type_of v));
  match v with
  | Value.Int n -> add_i64 buf n
  | Value.String s -> add_bytes buf s
  | Value.Float f -> Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Bool b -> add_u8 buf (if b then 1 else 0)

let value_in b lim pos =
  match read_u8 b lim pos with
  | 0 -> Value.Int (read_i64 b lim pos)
  | 1 -> Value.String (read_bytes b lim pos)
  | 2 ->
      need lim pos 8 "float";
      let f = Int64.float_of_bits (Bytes.get_int64_le b !pos) in
      pos := !pos + 8;
      Value.Float f
  | 3 -> Value.Bool (read_u8 b lim pos <> 0)
  | n -> corrupt "unknown value tag %d" n

let read_value s pos = value_in (Bytes.unsafe_of_string s) (String.length s) pos

(* --- tuples ------------------------------------------------------------ *)

let add_tuple buf t =
  add_u16 buf (Array.length t);
  Array.iter (add_value buf) t

let tuple_in b lim pos =
  let arity = read_u16 b lim pos in
  let t = Array.make arity (Value.Bool false) in
  for i = 0 to arity - 1 do
    t.(i) <- value_in b lim pos
  done;
  t

let tuple_to_string t =
  let buf = Buffer.create 64 in
  add_tuple buf t;
  Buffer.contents buf

let tuple_of_bytes b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Codec.tuple_of_bytes: range out of bounds";
  let pos = ref off and lim = off + len in
  let t = tuple_in b lim pos in
  if !pos <> lim then corrupt "trailing bytes after tuple";
  t

let tuple_of_string s =
  tuple_of_bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

(* --- schemas ----------------------------------------------------------- *)

let add_schema buf schema =
  let pairs = Schema.pairs schema in
  add_u16 buf (List.length pairs);
  List.iter
    (fun (attr, ty) ->
      add_bytes buf attr;
      add_u8 buf (tag_of_ty ty))
    pairs

let read_schema s pos =
  let b = Bytes.unsafe_of_string s and lim = String.length s in
  let n = read_u16 b lim pos in
  let pairs =
    List.init n (fun _ ->
        let attr = read_bytes b lim pos in
        let ty = ty_of_tag (read_u8 b lim pos) in
        (attr, ty))
  in
  Schema.make pairs

let schema_to_string schema =
  let buf = Buffer.create 64 in
  add_schema buf schema;
  Buffer.contents buf

let schema_of_string s =
  let pos = ref 0 in
  let sc = read_schema s pos in
  if !pos <> String.length s then corrupt "trailing bytes after schema";
  sc
