(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
   used by zip/png and by our page and WAL formats — computed by
   slicing-by-8 (Kounavis & Berry, 2005): eight 256-entry tables, one
   flat array, consume eight bytes per step with eight independent
   lookups instead of a chain of eight dependent ones.  Table 0 is the
   classic bytewise table; table k advances table k-1's entry through
   one more zero byte.  The tail (fewer than eight bytes) goes bytewise
   through table 0, so the output is exactly the bytewise CRC's. *)

let table =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

(* Bounds are checked once in [update]; these stay unchecked (and
   closed, so the compiler inlines them). *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let byte b i = Char.code (Bytes.unsafe_get b i)

let word b i =
  let w = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 w else w) land 0xFFFFFFFF

let look (t : int array) k i = Array.unsafe_get t ((k lsl 8) lor i)

let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32.update: range out of bounds";
  let t = Lazy.force table in
  let c = ref (crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let p = !i in
    let lo = !c lxor word b p and hi = word b (p + 4) in
    c :=
      look t 7 (lo land 0xff)
      lxor look t 6 ((lo lsr 8) land 0xff)
      lxor look t 5 ((lo lsr 16) land 0xff)
      lxor look t 4 (lo lsr 24)
      lxor look t 3 (hi land 0xff)
      lxor look t 2 ((hi lsr 8) land 0xff)
      lxor look t 1 ((hi lsr 16) land 0xff)
      lxor look t 0 (hi lsr 24);
    i := p + 8
  done;
  for p = stop8 to pos + len - 1 do
    c := look t 0 ((!c lxor byte b p) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  update 0 b ~pos ~len

let string ?pos ?len s = bytes ?pos ?len (Bytes.unsafe_of_string s)
