(* Tests for the physical planner: statistics collection and
   persistence, the secondary-index catalog, access-path selection,
   EXPLAIN rendering, the page traffic of planning and index builds, the
   Volcano executor against Eval.eval (fixed cases and the QCheck
   equivalence property, with and without indexes), join-algorithm
   forcing, and sort spill. *)

module R = Relational
module A = R.Algebra
open R.Value
open Fixtures

let tmp_counter = ref 0

let fresh_path () =
  incr tmp_counter;
  let dir = Filename.get_temp_dir_name () in
  let path =
    Filename.concat dir
      (Printf.sprintf "dbmeta_planner_%d_%d.db" (Unix.getpid ()) !tmp_counter)
  in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Storage.Engine.wal_path path ];
  path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Storage.Engine.wal_path path ]

(* Open a fresh engine, save the university tables, run [f]. *)
let with_university ?metrics f =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db ?metrics path in
  Storage.Engine.save_table eng "students" students;
  Storage.Engine.save_table eng "courses" courses;
  Storage.Engine.save_table eng "enrolled" enrolled;
  ignore
    (Planner.Stats.analyze eng [ "students"; "courses"; "enrolled" ]
      : Planner.Stats.t);
  Fun.protect
    ~finally:(fun () ->
      (* tests that exercise reopen persistence close [eng] themselves *)
      (try Storage.Engine.close eng with _ -> ());
      cleanup path)
    (fun () -> f path eng)

let check_rel = Alcotest.check relation_testable

(* --- statistics ---------------------------------------------------------- *)

let test_stats_collect_and_persist () =
  with_university (fun path eng ->
      let st = Planner.Stats.load eng in
      (match Planner.Stats.find st "students" with
      | None -> Alcotest.fail "no stats for students"
      | Some tb ->
          Alcotest.(check int) "rows" 5 tb.Planner.Stats.rows;
          Alcotest.(check bool) "pages > 0" true (tb.Planner.Stats.pages > 0);
          Alcotest.(check (option int)) "sid distinct" (Some 5)
            (Planner.Stats.distinct tb "sid");
          Alcotest.(check (option int)) "year distinct" (Some 3)
            (Planner.Stats.distinct tb "year"));
      (* persists across a close/reopen *)
      Storage.Engine.close eng;
      let eng2 = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () -> Storage.Engine.crash eng2)
        (fun () ->
          let st2 = Planner.Stats.load eng2 in
          match Planner.Stats.find st2 "enrolled" with
          | Some tb ->
              Alcotest.(check int) "reloaded rows"
                (R.Relation.cardinality enrolled)
                tb.Planner.Stats.rows
          | None -> Alcotest.fail "stats lost across reopen"))

let test_reserved_tables_hidden () =
  with_university (fun _path eng ->
      let names = Storage.Engine.table_names eng in
      Alcotest.(check bool) "no __stats in names" false
        (List.mem "__stats" names);
      Alcotest.(check (list string)) "public tables"
        [ "students"; "courses"; "enrolled" ]
        names;
      (* but load_table still resolves the reserved name *)
      Alcotest.(check bool) "reserved loadable" true
        (R.Relation.cardinality
           (Storage.Engine.load_table eng Planner.Stats.stats_table)
        > 0))

(* --- the index catalog ---------------------------------------------------- *)

let test_index_catalog_roundtrip () =
  with_university (fun path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "enrolled"; attr = "grade"; kind = Hash };
      (* duplicate and bogus definitions are input errors *)
      Alcotest.(check bool) "duplicate raises" true
        (match
           Planner.Indexes.create eng idx
             { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree }
         with
        | () -> false
        | exception Planner.Indexes.Index_error _ -> true);
      Alcotest.(check bool) "unknown column raises" true
        (match
           Planner.Indexes.create eng idx
             { Planner.Indexes.table = "students"; attr = "nope"; kind = Hash }
         with
        | () -> false
        | exception Planner.Indexes.Index_error _ -> true);
      Storage.Engine.close eng;
      let eng2 = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () -> Storage.Engine.crash eng2)
        (fun () ->
          let idx2 = Planner.Indexes.load eng2 in
          Alcotest.(check int) "two defs survive" 2
            (List.length (Planner.Indexes.defs idx2));
          Planner.Indexes.drop eng2 idx2
            { Planner.Indexes.table = "enrolled"; attr = "grade"; kind = Hash };
          Alcotest.(check int) "one after drop" 1
            (List.length (Planner.Indexes.defs idx2));
          Alcotest.(check bool) "missing drop raises" true
            (match
               Planner.Indexes.drop eng2 idx2
                 {
                   Planner.Indexes.table = "enrolled";
                   attr = "grade";
                   kind = Hash;
                 }
             with
            | () -> false
            | exception Planner.Indexes.Index_error _ -> true)))

(* --- plan shape ----------------------------------------------------------- *)

let rec find_scan (p : Planner.Physical.t) =
  match p.Planner.Physical.node with
  | Planner.Physical.Scan { access; _ } -> Some access
  | _ ->
      List.find_map find_scan (Planner.Physical.children p)

let test_point_lookup_chosen () =
  with_university (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      let ctx = Planner.Plan.make eng in
      let q = A.Select (A.Cmp (A.Eq, A.Attr "sid", A.Const (Int 2)), A.Rel "students") in
      let plan = Planner.Plan.plan ctx q in
      (match find_scan plan with
      | Some (Planner.Physical.Point { attr; via = Btree; _ }) ->
          Alcotest.(check string) "point on sid" "sid" attr
      | _ -> Alcotest.fail "expected a point access path");
      (* explain text names the index path *)
      Alcotest.(check bool) "explain mentions index" true
        (let text = Planner.Physical.to_text plan in
         let re = "index point scan students via btree(sid = 2)" in
         (* plain substring search *)
         let rec contains i =
           i + String.length re <= String.length text
           && (String.sub text i (String.length re) = re || contains (i + 1))
         in
         contains 0);
      check_rel "point result matches eval"
        (R.Eval.eval university q)
        (Planner.Exec.run ctx plan))

let test_range_scan_chosen () =
  with_university (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "enrolled"; attr = "grade"; kind = Btree };
      let ctx = Planner.Plan.make eng in
      let q =
        A.Select
          ( A.And
              ( A.Cmp (A.Ge, A.Attr "grade", A.Const (Int 80)),
                A.Cmp (A.Lt, A.Attr "grade", A.Const (Int 95)) ),
            A.Rel "enrolled" )
      in
      let plan = Planner.Plan.plan ctx q in
      (match find_scan plan with
      | Some (Planner.Physical.Range { attr; lo = Some (Int 80); _ }) ->
          Alcotest.(check string) "range on grade" "grade" attr
      | _ -> Alcotest.fail "expected a range access path");
      check_rel "range result matches eval"
        (R.Eval.eval university q)
        (Planner.Exec.run ctx plan))

let test_no_index_full_scan () =
  with_university (fun _path eng ->
      let ctx = Planner.Plan.make eng in
      let q = A.Select (A.Cmp (A.Eq, A.Attr "sid", A.Const (Int 2)), A.Rel "students") in
      match find_scan (Planner.Plan.plan ctx q) with
      | Some Planner.Physical.Full -> ()
      | _ -> Alcotest.fail "expected a sequential scan without indexes")

let test_explain_json_valid () =
  with_university (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      let ctx = Planner.Plan.make eng in
      let q =
        A.Project
          ( [ "sname" ],
            A.Select
              ( A.Cmp (A.Ge, A.Attr "grade", A.Const (Int 80)),
                A.Join (A.Rel "students", A.Rel "enrolled") ) )
      in
      let plan = Planner.Plan.plan ctx q in
      (match Obs.Json.validate (Planner.Physical.to_json plan) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("invalid explain JSON: " ^ e));
      (* still valid once actual_rows are filled in *)
      ignore (Planner.Exec.run ctx plan : R.Relation.t);
      match Obs.Json.validate (Planner.Physical.to_json plan) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("invalid executed JSON: " ^ e))

(* --- executor vs Eval.eval ------------------------------------------------ *)

let fixed_queries =
  [
    A.Rel "students";
    A.Project ([ "sname"; "year" ], A.Rel "students");
    A.Select (A.Cmp (A.Ge, A.Attr "grade", A.Const (Int 85)), A.Rel "enrolled");
    A.Project
      ( [ "sname" ],
        A.Select
          ( A.Cmp (A.Eq, A.Attr "dept", A.Const (String "cs")),
            A.Join (A.Join (A.Rel "students", A.Rel "enrolled"), A.Rel "courses") ) );
    A.Union
      ( A.Select (A.Cmp (A.Eq, A.Attr "year", A.Const (Int 1)), A.Rel "students"),
        A.Select (A.Cmp (A.Eq, A.Attr "year", A.Const (Int 3)), A.Rel "students") );
    A.Diff
      ( A.Project ([ "sid" ], A.Rel "students"),
        A.Project ([ "sid" ], A.Rel "enrolled") );
    A.Product
      ( A.Project ([ "sid" ], A.Rel "students"),
        A.Project ([ "cid" ], A.Rel "courses") );
    A.Rename ([ ("sname", "name") ], A.Rel "students");
    A.Divide
      ( A.Project ([ "sid"; "cid" ], A.Rel "enrolled"),
        A.Project
          ( [ "cid" ],
            A.Select
              (A.Cmp (A.Eq, A.Attr "dept", A.Const (String "cs")), A.Rel "courses") ) );
    A.Singleton [ ("k", Int 1); ("tag", String "x") ];
  ]

let test_exec_matches_eval_fixed () =
  with_university (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "enrolled"; attr = "grade"; kind = Btree };
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "courses"; attr = "dept"; kind = Hash };
      let ctx = Planner.Plan.make eng in
      List.iter
        (fun q ->
          let expected = R.Eval.eval university q in
          let got = Planner.Exec.run ctx (Planner.Plan.plan ctx q) in
          check_rel (A.to_string q) expected got)
        fixed_queries)

let test_exec_unoptimized_matches () =
  with_university (fun _path eng ->
      let config =
        { Planner.Plan.default_config with Planner.Plan.optimize = false }
      in
      let ctx = Planner.Plan.make ~config eng in
      List.iter
        (fun q ->
          check_rel (A.to_string q) (R.Eval.eval university q)
            (Planner.Exec.run ctx (Planner.Plan.plan ctx q)))
        fixed_queries)

let join_query =
  A.Project
    ( [ "sname"; "grade" ],
      A.Join (A.Rel "students", A.Rel "enrolled") )

let test_forced_join_algorithms_agree () =
  with_university (fun _path eng ->
      let run force =
        let config =
          { Planner.Plan.default_config with Planner.Plan.force_join = force }
        in
        let ctx = Planner.Plan.make ~config eng in
        Planner.Exec.run ctx (Planner.Plan.plan ctx join_query)
      in
      let expected = R.Eval.eval university join_query in
      check_rel "hash join" expected (run Planner.Plan.Force_hash);
      check_rel "merge join" expected (run Planner.Plan.Force_merge))

let test_merge_join_uses_index_order () =
  with_university (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "enrolled"; attr = "sid"; kind = Btree };
      let config =
        {
          Planner.Plan.default_config with
          Planner.Plan.force_join = Planner.Plan.Force_merge;
        }
      in
      let ctx = Planner.Plan.make ~config eng in
      let plan = Planner.Plan.plan ctx (A.Join (A.Rel "students", A.Rel "enrolled")) in
      let ordered =
        Planner.Physical.fold
          (fun acc n ->
            match n.Planner.Physical.node with
            | Planner.Physical.Scan { access = Planner.Physical.Ordered _; _ } ->
                acc + 1
            | _ -> acc)
          0 plan
      in
      Alcotest.(check int) "both sides index-ordered" 2 ordered;
      check_rel "merge over index order matches eval"
        (R.Eval.eval university (A.Join (A.Rel "students", A.Rel "enrolled")))
        (Planner.Exec.run ctx plan))

let test_sort_spill () =
  let metrics = Obs.Registry.create () in
  with_university ~metrics (fun _path eng ->
      let config =
        {
          Planner.Plan.default_config with
          Planner.Plan.force_join = Planner.Plan.Force_merge;
          Planner.Plan.sort_spill = Some 2;
        }
      in
      let ctx = Planner.Plan.make ~config eng in
      let expected = R.Eval.eval university join_query in
      let got = Planner.Exec.run ctx (Planner.Plan.plan ctx join_query) in
      check_rel "spilling merge join matches eval" expected got;
      (match Obs.Registry.counter_value metrics "plan.spills" with
      | Some n -> Alcotest.(check bool) "spilled runs" true (n > 0)
      | None -> Alcotest.fail "plan.spills not registered"))

let test_actuals_and_counters () =
  let metrics = Obs.Registry.create () in
  with_university ~metrics (fun _path eng ->
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "students"; attr = "sid"; kind = Btree };
      let ctx = Planner.Plan.make eng in
      let q = A.Select (A.Cmp (A.Eq, A.Attr "sid", A.Const (Int 2)), A.Rel "students") in
      let plan = Planner.Plan.plan ctx q in
      ignore (Planner.Exec.run ctx plan : R.Relation.t);
      Alcotest.(check int) "root actual rows" 1
        plan.Planner.Physical.meta.Planner.Physical.actual_rows;
      Alcotest.(check (option int)) "one planned query" (Some 1)
        (Obs.Registry.counter_value metrics "plan.queries");
      Alcotest.(check (option int)) "one execution" (Some 1)
        (Obs.Registry.counter_value metrics "plan.executions");
      Alcotest.(check (option int)) "index path counted" (Some 1)
        (Obs.Registry.counter_value metrics "plan.index_scans"))

(* --- page traffic of planning and index builds ---------------------------- *)

(* Buffer-pool fetches (hits + misses) made by [f]: every page a walk
   visits, warm or cold. *)
let fetches eng f =
  let st = Storage.Buffer_pool.stats (Storage.Engine.pool eng) in
  let before = st.Storage.Buffer_pool.hits + st.Storage.Buffer_pool.misses in
  let x = f () in
  (x, st.Storage.Buffer_pool.hits + st.Storage.Buffer_pool.misses - before)

let test_plan_and_build_page_reads () =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db ~pool_size:4 path in
  Fun.protect
    ~finally:(fun () ->
      Storage.Engine.close eng;
      cleanup path)
    (fun () ->
      let schema = R.Schema.make [ ("k", TInt); ("v", TString) ] in
      let big =
        R.Relation.of_list schema
          (List.init 2000 (fun i -> [ Int (i mod 700); String (string_of_int i) ]))
      in
      Storage.Engine.save_table eng "big" big;
      let first =
        match Storage.Engine.table_info eng with
        | [ (_, _, first) ] -> first
        | _ -> Alcotest.fail "expected one table"
      in
      let pages = Storage.Heap.chain_pages (Storage.Engine.pool eng) ~first in
      Alcotest.(check bool) "table spans many pages" true (pages > 8);
      let idx = Planner.Indexes.load eng in
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "big"; attr = "k"; kind = Btree };
      Planner.Indexes.create eng idx
        { Planner.Indexes.table = "big"; attr = "k"; kind = Hash };
      (* scans big four times: two sides of a self-join, each a full
         scan plus two index candidates *)
      let q =
        let side = A.Select (A.Cmp (A.Eq, A.Attr "k", A.Const (Int 5)), A.Rel "big") in
        A.Join (side, side)
      in
      let config =
        { Planner.Plan.default_config with optimize = false; semantic = false }
      in
      (* no statistics: one walk of the chain per context *)
      let ctx = Planner.Plan.make ~config eng in
      let _, n = fetches eng (fun () -> Planner.Plan.plan ctx q) in
      Alcotest.(check int) "without stats: one walk" pages n;
      let _, n = fetches eng (fun () -> Planner.Plan.plan ctx q) in
      Alcotest.(check int) "without stats: memoized" 0 n;
      (* with statistics: no page read at all *)
      ignore (Planner.Stats.analyze eng [ "big" ] : Planner.Stats.t);
      let ctx = Planner.Plan.make ~config eng in
      let plan, n = fetches eng (fun () -> Planner.Plan.plan ctx q) in
      Alcotest.(check int) "with stats: no reads" 0 n;
      (match Planner.Stats.find (Planner.Plan.stats ctx) "big" with
      | Some tb -> Alcotest.(check int) "stats pages" pages tb.Planner.Stats.pages
      | None -> Alcotest.fail "no stats for big");
      (* each index build reads every chain page exactly once, after
         looking the table up in the catalog *)
      let _, catalog = fetches eng (fun () -> Storage.Engine.table_info eng) in
      let idx = Planner.Plan.indexes ctx in
      let _, n =
        fetches eng (fun () -> Planner.Indexes.btree eng idx ~table:"big" ~attr:"k")
      in
      Alcotest.(check int) "btree build: one pass" (catalog + pages) n;
      let _, n =
        fetches eng (fun () -> Planner.Indexes.hash eng idx ~table:"big" ~attr:"k")
      in
      Alcotest.(check int) "hash build: one pass" (catalog + pages) n;
      let _, n =
        fetches eng (fun () -> Planner.Indexes.btree eng idx ~table:"big" ~attr:"k")
      in
      Alcotest.(check int) "built once per context" 0 n;
      check_rel "planned self-join matches eval"
        (R.Eval.eval (R.Database.add R.Database.empty "big" big) q)
        (Planner.Exec.run ctx plan))

(* --- the QCheck equivalence property -------------------------------------- *)

let property count name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* Save every relation of a random database into a fresh engine, create
   indexes on a seed-dependent subset of columns, and check the chosen
   physical plan evaluates to exactly Eval.eval's relation. *)
let prop_physical_matches_eval =
  property 40 "physical plan = Eval.eval (random db, random indexes)"
    seed_gen (fun seed ->
      let rng = Support.Rng.create seed in
      let db =
        R.Generator.random_database rng ~relations:3 ~arity:3 ~size:8 ~domain:5
      in
      let q = R.Generator.random_query rng db ~depth:3 ~domain:5 in
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          R.Database.fold
            (fun name rel () -> Storage.Engine.save_table eng name rel)
            db ();
          ignore (Planner.Stats.analyze eng (R.Database.names db) : Planner.Stats.t);
          let idx = Planner.Indexes.load eng in
          (* index a seed-dependent subset of columns, both kinds *)
          R.Database.fold
            (fun name rel () ->
              let attrs = R.Schema.attributes (R.Relation.schema rel) in
              List.iteri
                (fun i attr ->
                  let kind =
                    if (seed + i) mod 3 = 0 then Some Planner.Indexes.Btree
                    else if (seed + i) mod 3 = 1 then Some Planner.Indexes.Hash
                    else None
                  in
                  match kind with
                  | Some kind ->
                      Planner.Indexes.create eng idx
                        { Planner.Indexes.table = name; attr; kind }
                  | None -> ())
                attrs)
            db ();
          let ctx = Planner.Plan.make eng in
          let expected = R.Eval.eval db q in
          let got = Planner.Exec.run ctx (Planner.Plan.plan ctx q) in
          R.Relation.equal expected got))

let prop_forced_merge_matches_eval =
  property 25 "forced merge join = Eval.eval (random db)" seed_gen
    (fun seed ->
      let rng = Support.Rng.create seed in
      let db =
        R.Generator.random_database rng ~relations:2 ~arity:3 ~size:10 ~domain:4
      in
      let q = R.Generator.random_query rng db ~depth:3 ~domain:4 in
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          R.Database.fold
            (fun name rel () -> Storage.Engine.save_table eng name rel)
            db ();
          let config =
            {
              Planner.Plan.default_config with
              Planner.Plan.force_join = Planner.Plan.Force_merge;
              Planner.Plan.sort_spill = Some 3;
            }
          in
          let ctx = Planner.Plan.make ~config eng in
          R.Relation.equal (R.Eval.eval db q)
            (Planner.Exec.run ctx (Planner.Plan.plan ctx q))))

(* --- chase-based join elimination and the certifier ----------------------- *)

let scan_count plan =
  Planner.Physical.fold
    (fun n node -> if Planner.Physical.children node = [] then n + 1 else n)
    0 plan

let self_join_q =
  R.Query_parser.parse
    "project[sid, sname](students join rename[sname -> s2, year -> \
     y2](students))"

(* sid is a key of the students fixture (distinct = rows), so the chase
   folds the self-join to a single scan — and the result is unchanged. *)
let test_join_elimination_fixed () =
  with_university (fun _path eng ->
      let ctx = Planner.Plan.make eng in
      let plan = Planner.Plan.plan ctx self_join_q in
      Alcotest.(check int) "one scan after elimination" 1 (scan_count plan);
      Alcotest.(check bool) "counter recorded the dropped join" true
        (Obs.Registry.Counter.value
           (Planner.Plan.instruments ctx).Planner.Plan.i_join_eliminations
        >= 1);
      let expected = R.Eval.eval university self_join_q in
      check_rel "eliminated plan evaluates identically" expected
        (Planner.Exec.run ctx plan);
      (* the rewrite off: the join (two scans) comes back *)
      let config =
        { Planner.Plan.default_config with Planner.Plan.semantic = false }
      in
      let ctx' = Planner.Plan.make ~config eng in
      let plan' = Planner.Plan.plan ctx' self_join_q in
      Alcotest.(check int) "two scans without the rewrite" 2 (scan_count plan');
      check_rel "both paths agree" expected (Planner.Exec.run ctx' plan'))

let test_certify_fixed () =
  with_university (fun _path eng ->
      let ctx = Planner.Plan.make eng in
      let plan = Planner.Plan.plan ctx self_join_q in
      let report = Planner.Certify.certify ctx self_join_q plan in
      Alcotest.(check int) "five stages" 5 (List.length report);
      Alcotest.(check bool) "all stages prove out" true
        (List.for_all
           (fun s -> s.Planner.Certify.verdict = Planner.Certify.Equivalent)
           report);
      Alcotest.(check bool) "report is ok" true (Planner.Certify.ok report))

(* Translation validation as a standing gate: whatever rewrite sequence
   the optimizer picks on a random database must certify — a [Refuted]
   stage here is a planner bug (the prover only refutes on the fragment
   where it is complete). *)
let prop_certify_never_refutes =
  property 30 "certifier never refutes an optimizer rewrite (random db)"
    seed_gen (fun seed ->
      let rng = Support.Rng.create seed in
      let db =
        R.Generator.random_database rng ~relations:3 ~arity:3 ~size:8 ~domain:5
      in
      let q = R.Generator.random_query rng db ~depth:3 ~domain:5 in
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          R.Database.fold
            (fun name rel () -> Storage.Engine.save_table eng name rel)
            db ();
          ignore
            (Planner.Stats.analyze eng (R.Database.names db) : Planner.Stats.t);
          let ctx = Planner.Plan.make eng in
          let plan = Planner.Plan.plan ctx q in
          Planner.Certify.ok (Planner.Certify.certify ctx q plan)))

(* Join elimination is on by default in the main differential property
   above; this one pins the comparison the other way: with the semantic
   rewrite forced off, results still match the rewritten path. *)
let prop_semantic_rewrite_preserves_results =
  property 25 "semantic rewrite on/off agree (random db)" seed_gen
    (fun seed ->
      let rng = Support.Rng.create seed in
      let db =
        R.Generator.random_database rng ~relations:2 ~arity:3 ~size:6 ~domain:3
      in
      let q = R.Generator.random_query rng db ~depth:3 ~domain:3 in
      let path = fresh_path () in
      let eng = Storage.Engine.open_db path in
      Fun.protect
        ~finally:(fun () ->
          Storage.Engine.close eng;
          cleanup path)
        (fun () ->
          R.Database.fold
            (fun name rel () -> Storage.Engine.save_table eng name rel)
            db ();
          ignore
            (Planner.Stats.analyze eng (R.Database.names db) : Planner.Stats.t);
          let on = Planner.Plan.make eng in
          let off =
            Planner.Plan.make
              ~config:
                {
                  Planner.Plan.default_config with
                  Planner.Plan.semantic = false;
                }
              eng
          in
          R.Relation.equal
            (Planner.Exec.run on (Planner.Plan.plan on q))
            (Planner.Exec.run off (Planner.Plan.plan off q))))

(* --- PL003 names the cause ------------------------------------------------ *)

(* Plan and run [q] over table "t" (schema k:int), then the PL003
   messages of the lint. *)
let pl003_messages eng q =
  let ctx = Planner.Plan.make eng in
  let plan = Planner.Plan.plan ctx q in
  ignore (Planner.Exec.run ctx plan : R.Relation.t);
  List.filter_map
    (fun d ->
      if d.Analysis.Diagnostic.code = "PL003" then Some d.Analysis.Diagnostic.message
      else None)
    (Analysis.Plan_lint.lint
       {
         Analysis.Plan_lint.plan;
         indexes = Planner.Indexes.defs (Planner.Plan.indexes ctx);
         stats = Planner.Plan.stats ctx;
       })

let with_keys n f =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db path in
  let keys n = R.Relation.of_list (R.Schema.make [ ("k", TInt) ]) (List.init n (fun i -> [ Int i ])) in
  Fun.protect
    ~finally:(fun () ->
      Storage.Engine.close eng;
      cleanup path)
    (fun () ->
      Storage.Engine.save_table eng "t" (keys n);
      ignore (Planner.Stats.analyze eng [ "t" ] : Planner.Stats.t);
      f eng keys)

let check_pl003 what expected messages =
  Alcotest.(check bool) (what ^ ": PL003 fired") true (messages <> []);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %S" what m expected)
        true (Str_contains.contains m expected))
    messages

let test_pl003_stale_statistics () =
  with_keys 100 (fun eng keys ->
      (* the table grows tenfold behind the statistics' back *)
      Storage.Engine.save_table eng "t" (keys 1000);
      let all = A.Select (A.Cmp (A.Ge, A.Attr "k", A.Const (Int 0)), A.Rel "t") in
      check_pl003 "scan" "statistics are stale" (pl003_messages eng (A.Rel "t"));
      check_pl003 "filter over the scan" "statistics are stale" (pl003_messages eng all))

let test_pl003_model_error () =
  with_keys 1000 (fun eng _ ->
      (* fresh statistics: the scan produces exactly the counted rows, so
         the flat filter selectivity is what is wrong *)
      let point = A.Select (A.Cmp (A.Eq, A.Attr "k", A.Const (Int 5)), A.Rel "t") in
      check_pl003 "point filter" "estimate model error (selectivity/uniformity)"
        (pl003_messages eng point))

let suite =
  [
    Alcotest.test_case "stats collect and persist" `Quick
      test_stats_collect_and_persist;
    Alcotest.test_case "reserved tables hidden" `Quick
      test_reserved_tables_hidden;
    Alcotest.test_case "index catalog roundtrip" `Quick
      test_index_catalog_roundtrip;
    Alcotest.test_case "point lookup chosen" `Quick test_point_lookup_chosen;
    Alcotest.test_case "range scan chosen" `Quick test_range_scan_chosen;
    Alcotest.test_case "full scan without indexes" `Quick
      test_no_index_full_scan;
    Alcotest.test_case "explain json valid" `Quick test_explain_json_valid;
    Alcotest.test_case "executor matches eval (fixed)" `Quick
      test_exec_matches_eval_fixed;
    Alcotest.test_case "executor matches eval (unoptimized)" `Quick
      test_exec_unoptimized_matches;
    Alcotest.test_case "forced join algorithms agree" `Quick
      test_forced_join_algorithms_agree;
    Alcotest.test_case "merge join uses index order" `Quick
      test_merge_join_uses_index_order;
    Alcotest.test_case "sort spill" `Quick test_sort_spill;
    Alcotest.test_case "actuals and counters" `Quick test_actuals_and_counters;
    Alcotest.test_case "plan and index build page reads" `Quick
      test_plan_and_build_page_reads;
    Alcotest.test_case "join elimination (fixed)" `Quick
      test_join_elimination_fixed;
    Alcotest.test_case "certify (fixed)" `Quick test_certify_fixed;
    Alcotest.test_case "PL003 names stale statistics" `Quick
      test_pl003_stale_statistics;
    Alcotest.test_case "PL003 names estimate model error" `Quick
      test_pl003_model_error;
    prop_physical_matches_eval;
    prop_forced_merge_matches_eval;
    prop_certify_never_refutes;
    prop_semantic_rewrite_preserves_results;
  ]
