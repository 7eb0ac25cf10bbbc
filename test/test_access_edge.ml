(* Edge cases for the access methods that the main suites skirt around:
   B+tree deletion interacting with the leaf chain and range scans,
   duplicate-key payload ordering, the single-type-per-tree guard,
   bulk loading against incremental inserts, and extendible-hash
   directory growth under skew and at depth. *)

module V = Relational.Value

let vi i = V.Int i

(* --- B+tree: delete, then range over the leaf chain --------------------- *)

let test_btree_delete_then_range () =
  (* small order so the tree is several leaves deep; delete every third
     key, then range-scan across the former leaf boundaries *)
  let t = Access.Btree.create ~order:3 () in
  for i = 1 to 60 do
    Access.Btree.insert t (vi i) (i * 100)
  done;
  for i = 1 to 60 do
    if i mod 3 = 0 then
      Alcotest.(check bool) (Printf.sprintf "delete %d" i) true
        (Access.Btree.delete t (vi i))
  done;
  Alcotest.(check bool) "delete of gone key is false" false
    (Access.Btree.delete t (vi 3));
  Alcotest.(check int) "40 keys left" 40 (Access.Btree.cardinality t);
  (match Access.Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariants after lazy deletes: " ^ e));
  let got = Access.Btree.range t ~lo:(vi 10) ~hi:(vi 30) in
  let expected =
    List.filter (fun i -> i mod 3 <> 0) (List.init 21 (fun k -> k + 10))
  in
  Alcotest.(check (list int)) "range skips deleted keys" expected
    (List.map (fun (k, _) -> match k with V.Int i -> i | _ -> -1) got);
  List.iter
    (fun (k, ps) ->
      match k with
      | V.Int i -> Alcotest.(check (list int)) "payload intact" [ i * 100 ] ps
      | _ -> Alcotest.fail "non-int key")
    got;
  (* deleted keys answer empty, survivors still answer *)
  Alcotest.(check (list int)) "deleted key finds nothing" []
    (Access.Btree.find t (vi 30));
  Alcotest.(check (list int)) "survivor unharmed" [ 2900 ]
    (Access.Btree.find t (vi 29))

let test_btree_delete_everything () =
  let t = Access.Btree.create ~order:3 () in
  for i = 1 to 25 do
    Access.Btree.insert t (vi i) i
  done;
  for i = 25 downto 1 do
    ignore (Access.Btree.delete t (vi i) : bool)
  done;
  Alcotest.(check int) "empty" 0 (Access.Btree.cardinality t);
  Alcotest.(check (list (pair string (list int)))) "range over empty tree" []
    (List.map
       (fun (k, ps) -> (V.to_literal k, ps))
       (Access.Btree.range t ~lo:(vi 1) ~hi:(vi 25)));
  (* the tree keeps working after total deletion *)
  Access.Btree.insert t (vi 7) 70;
  Alcotest.(check (list int)) "reinsert works" [ 70 ] (Access.Btree.find t (vi 7))

let test_btree_duplicate_payload_order () =
  let t = Access.Btree.create ~order:4 () in
  (* interleave duplicates with enough other keys to force splits *)
  for i = 1 to 30 do
    Access.Btree.insert t (vi i) 0
  done;
  List.iteri
    (fun n p -> ignore n; Access.Btree.insert t (vi 17) p)
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "oldest first, insertion order" [ 0; 1; 2; 3; 4; 5 ]
    (Access.Btree.find t (vi 17));
  let in_range =
    List.assoc (vi 17) (Access.Btree.range t ~lo:(vi 17) ~hi:(vi 17))
  in
  Alcotest.(check (list int)) "range sees the same payload list"
    [ 0; 1; 2; 3; 4; 5 ] in_range

let test_btree_key_type_clash () =
  let t = Access.Btree.create () in
  Access.Btree.insert t (V.String "a") 1;
  Alcotest.(check bool) "int into string tree" true
    (match Access.Btree.insert t (V.Int 1) 2 with
    | () -> false
    | exception Access.Btree.Key_type_clash _ -> true);
  Alcotest.(check bool) "float into string tree" true
    (match Access.Btree.insert t (V.Float 1.0) 3 with
    | () -> false
    | exception Access.Btree.Key_type_clash _ -> true);
  (* the failed inserts must not have damaged anything *)
  Alcotest.(check (list int)) "original intact" [ 1 ]
    (Access.Btree.find t (V.String "a"));
  Alcotest.(check int) "cardinality unchanged" 1 (Access.Btree.cardinality t)

(* --- extendible hashing -------------------------------------------------- *)

let test_hash_growth () =
  let h = Access.Hash_index.create ~bucket_capacity:2 () in
  let n = 200 in
  for i = 1 to n do
    Access.Hash_index.insert h (vi i) (i * 7)
  done;
  Alcotest.(check int) "all keys present" n (Access.Hash_index.cardinality h);
  Alcotest.(check bool) "directory doubled repeatedly" true
    (Access.Hash_index.global_depth h >= 5);
  Alcotest.(check int) "directory size = 2^depth"
    (1 lsl Access.Hash_index.global_depth h)
    (Access.Hash_index.directory_size h);
  (match Access.Hash_index.check_invariants h with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("hash invariants after growth: " ^ e));
  for i = 1 to n do
    Alcotest.(check (list int)) (Printf.sprintf "find %d" i) [ i * 7 ]
      (Access.Hash_index.find h (vi i))
  done;
  Alcotest.(check (list int)) "absent key" [] (Access.Hash_index.find h (vi 0))

let test_hash_duplicates_and_delete () =
  let h = Access.Hash_index.create ~bucket_capacity:2 () in
  List.iter (fun p -> Access.Hash_index.insert h (V.String "dup") p) [ 1; 2; 3 ];
  Access.Hash_index.insert h (V.String "other") 9;
  Alcotest.(check (list int)) "payload accumulation order" [ 1; 2; 3 ]
    (Access.Hash_index.find h (V.String "dup"));
  Alcotest.(check bool) "delete removes the key" true
    (Access.Hash_index.delete h (V.String "dup"));
  Alcotest.(check (list int)) "gone" [] (Access.Hash_index.find h (V.String "dup"));
  Alcotest.(check bool) "second delete is false" false
    (Access.Hash_index.delete h (V.String "dup"));
  Alcotest.(check (list int)) "unrelated key survives" [ 9 ]
    (Access.Hash_index.find h (V.String "other"));
  (match Access.Hash_index.check_invariants h with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("hash invariants after delete: " ^ e))

(* deletions never shrink the directory: depth is monotone *)
let prop_hash_depth_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"hash directory growth is monotone"
       QCheck2.Gen.(list_size (int_range 0 120) (int_range 0 40))
       (fun ops ->
         let h = Access.Hash_index.create ~bucket_capacity:2 () in
         let depth = ref (Access.Hash_index.global_depth h) in
         List.for_all
           (fun k ->
             (* even op: insert; odd op: delete that key *)
             if k mod 2 = 0 then Access.Hash_index.insert h (vi k) k
             else ignore (Access.Hash_index.delete h (vi k) : bool);
             let d = Access.Hash_index.global_depth h in
             let ok =
               d >= !depth
               && Access.Hash_index.directory_size h = 1 lsl d
               && Access.Hash_index.check_invariants h = Ok ()
             in
             depth := d;
             ok)
           ops))

(* --- bulk loading --------------------------------------------------------- *)

let btree_items t =
  let out = ref [] in
  Access.Btree.iter (fun k ps -> out := (k, ps) :: !out) t;
  List.rev !out

let items_testable =
  Alcotest.(list (pair (testable V.pp V.equal) (list int)))

(* [of_sorted] on the stably sorted entries holds what inserting them one
   by one holds, payload order under a key included *)
let prop_btree_of_sorted_matches_inserts =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"btree of_sorted matches inserts"
       QCheck2.Gen.(
         pair (int_range 3 64)
           (oneof
              [
                list_size (int_range 0 400) (int_range 0 12);
                list_size (int_range 0 400) (int_range 0 1000);
                list_size (int_range 0 2) (int_range 0 5);
              ]))
       (fun (order, keys) ->
         let entries = List.mapi (fun i k -> (vi k, i)) keys in
         let sorted =
           List.stable_sort (fun (a, _) (b, _) -> V.compare a b) entries
         in
         let bulk = Access.Btree.of_sorted ~order sorted in
         let inserted = Access.Btree.of_list ~order entries in
         btree_items bulk = btree_items inserted
         && Access.Btree.check_invariants bulk = Ok ()
         && Access.Btree.check_invariants inserted = Ok ()))

let test_btree_of_sorted_edges () =
  let empty = Access.Btree.of_sorted ~order:4 [] in
  Alcotest.check items_testable "empty" [] (btree_items empty);
  Alcotest.(check (list int)) "empty find" [] (Access.Btree.find empty (vi 1));
  let one = Access.Btree.of_sorted ~order:4 [ (vi 7, 1); (vi 7, 2) ] in
  Alcotest.check items_testable "one key" [ (vi 7, [ 1; 2 ]) ] (btree_items one);
  Alcotest.(check int) "one leaf" 1 (Access.Btree.height one);
  (* order-3 leaves hold 3 keys: 10 keys are 2 full leaves plus 4 keys
     shared 2 + 2, never a lone underfull last leaf *)
  let ten = Access.Btree.of_sorted ~order:3 (List.init 10 (fun i -> (vi i, i))) in
  (match Access.Btree.check_invariants ten with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariants after bulk load: " ^ e));
  Alcotest.(check (list int)) "range across leaves" [ 2; 3; 4; 5; 6 ]
    (List.concat_map snd (Access.Btree.range ten ~lo:(vi 2) ~hi:(vi 6)));
  Alcotest.check_raises "unsorted input"
    (Invalid_argument "Btree.of_sorted: keys out of order") (fun () ->
      ignore (Access.Btree.of_sorted [ (vi 2, 0); (vi 1, 0) ] : int Access.Btree.t));
  Alcotest.(check bool) "mixed key types" true
    (match Access.Btree.of_sorted [ (vi 1, 0); (V.String "a", 0) ] with
    | _ -> false
    | exception Access.Btree.Key_type_clash _ -> true)

(* A directory deep enough that a split rewriting every slot would be
   quadratic; contents checked against a reference map. *)
let test_hash_deep_directory () =
  let module M = Map.Make (Int) in
  let h = Access.Hash_index.create () in
  let reference = ref M.empty in
  let n = 12_000 in
  for i = 0 to n - 1 do
    (* every 16th key three times, so payload lists grow too *)
    let copies = if i mod 16 = 0 then 3 else 1 in
    for c = 1 to copies do
      let payload = (i * 10) + c in
      Access.Hash_index.insert h (vi i) payload;
      reference :=
        M.update i
          (function None -> Some [ payload ] | Some ps -> Some (ps @ [ payload ]))
          !reference
    done
  done;
  Alcotest.(check bool) "directory depth >= 14" true
    (Access.Hash_index.global_depth h >= 14);
  (match Access.Hash_index.check_invariants h with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("hash invariants at depth: " ^ e));
  Alcotest.(check int) "cardinality" n (Access.Hash_index.cardinality h);
  M.iter
    (fun k ps ->
      if Access.Hash_index.find h (vi k) <> ps then
        Alcotest.failf "find %d differs from the reference" k)
    !reference;
  Alcotest.(check (list int)) "absent key" [] (Access.Hash_index.find h (vi n))

let suite =
  [
    Alcotest.test_case "btree delete then range" `Quick test_btree_delete_then_range;
    Alcotest.test_case "btree delete everything" `Quick test_btree_delete_everything;
    Alcotest.test_case "btree duplicate payload order" `Quick
      test_btree_duplicate_payload_order;
    Alcotest.test_case "btree key type clash" `Quick test_btree_key_type_clash;
    Alcotest.test_case "hash growth" `Quick test_hash_growth;
    Alcotest.test_case "hash duplicates and delete" `Quick
      test_hash_duplicates_and_delete;
    prop_hash_depth_monotone;
    prop_btree_of_sorted_matches_inserts;
    Alcotest.test_case "btree of_sorted edges" `Quick test_btree_of_sorted_edges;
    Alcotest.test_case "hash deep directory" `Quick test_hash_deep_directory;
  ]
