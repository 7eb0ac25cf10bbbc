module V = Relational.Value

(* payloads are kept newest first, so appending under an existing key is
   a cons; [find] reverses them back into insertion order *)
type 'p entry = { key : V.t; mutable payloads : 'p list }

type 'p bucket = {
  local_depth : int;
  mutable entries : 'p entry list;
}

type 'p t = {
  capacity : int;
  mutable global_depth : int;
  mutable directory : 'p bucket array;  (* length = 2^global_depth *)
}

let create ?(bucket_capacity = 4) () =
  let bucket = { local_depth = 0; entries = [] } in
  { capacity = max 1 bucket_capacity; global_depth = 0; directory = [| bucket |] }

let hash key = V.hash key land max_int

let slot t key = hash key land ((1 lsl t.global_depth) - 1)

let find_entry bucket key =
  List.find_opt (fun e -> V.compare_poly e.key key = 0) bucket.entries

let double_directory t =
  t.directory <- Array.append t.directory t.directory;
  t.global_depth <- t.global_depth + 1

let rec insert t key payload =
  let i = slot t key in
  let bucket = t.directory.(i) in
  match find_entry bucket key with
  | Some e -> e.payloads <- payload :: e.payloads
  | None ->
      if
        List.length bucket.entries < t.capacity
        (* full-hash collisions could force unbounded doubling; past depth
           24 the bucket simply overflows *)
        || t.global_depth >= 24
      then bucket.entries <- { key; payloads = [ payload ] } :: bucket.entries
      else begin
        (* split the bucket (doubling the directory first if needed) *)
        if bucket.local_depth = t.global_depth then double_directory t;
        let new_depth = bucket.local_depth + 1 in
        let bit = 1 lsl bucket.local_depth in
        let zero = { local_depth = new_depth; entries = [] } in
        let one = { local_depth = new_depth; entries = [] } in
        List.iter
          (fun e ->
            let target = if hash e.key land bit = 0 then zero else one in
            target.entries <- e :: target.entries)
          bucket.entries;
        (* the slots sharing the bucket are exactly those agreeing with
           [i] on its low [local_depth] bits: every [bit]-th one *)
        let j = ref (i land (bit - 1)) in
        while !j < Array.length t.directory do
          t.directory.(!j) <- (if !j land bit = 0 then zero else one);
          j := !j + bit
        done;
        insert t key payload
      end

let find t key =
  match find_entry t.directory.(slot t key) key with
  | Some e -> List.rev e.payloads
  | None -> []

let mem t key = find_entry t.directory.(slot t key) key <> None

let delete t key =
  let bucket = t.directory.(slot t key) in
  let before = List.length bucket.entries in
  bucket.entries <-
    List.filter (fun e -> V.compare_poly e.key key <> 0) bucket.entries;
  List.length bucket.entries < before

let global_depth t = t.global_depth
let directory_size t = Array.length t.directory

(* each bucket once: at the one slot below 2^local_depth it owns *)
let fold_buckets f t init =
  let acc = ref init in
  Array.iteri
    (fun j b -> if j < 1 lsl b.local_depth then acc := f b !acc)
    t.directory;
  !acc

let bucket_count t = fold_buckets (fun _ n -> n + 1) t 0

let cardinality t =
  fold_buckets (fun b n -> n + List.length b.entries) t 0

let check_invariants (type p) (t : p t) =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let module Owners = Hashtbl.Make (struct
    type t = p bucket

    let equal = ( == )
    let hash = Hashtbl.hash
  end) in
  let size = Array.length t.directory in
  if size <> 1 lsl t.global_depth then
    fail "directory size %d is not 2^%d" size t.global_depth
  else begin
    (* one pass: per bucket, its slot count and the low bits its slots
       share; a slot disagreeing on those bits is reported at once *)
    let owners = Owners.create 64 in
    let stray = ref None in
    Array.iteri
      (fun j b ->
        let low = j land ((1 lsl b.local_depth) - 1) in
        match Owners.find_opt owners b with
        | None -> Owners.replace owners b (1, low)
        | Some (n, low') ->
            if low <> low' && !stray = None then stray := Some j;
            Owners.replace owners b (n + 1, low'))
      t.directory;
    match !stray with
    | Some j -> fail "slot %d shares a bucket outside its hash prefix" j
    | None ->
        Owners.fold
          (fun bucket (slots, low) acc ->
            match acc with
            | Error _ -> acc
            | Ok () ->
                if bucket.local_depth > t.global_depth then
                  fail "local depth exceeds global depth"
                else if slots <> 1 lsl (t.global_depth - bucket.local_depth)
                then
                  fail "bucket with local depth %d owned by %d slots, expected %d"
                    bucket.local_depth slots
                    (1 lsl (t.global_depth - bucket.local_depth))
                else if
                  List.exists
                    (fun e ->
                      hash e.key land ((1 lsl bucket.local_depth) - 1) <> low)
                    bucket.entries
                then fail "key stored in a bucket its hash does not address"
                else Ok ())
          owners (Ok ())
  end
