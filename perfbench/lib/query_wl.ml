(* The query workloads, one client in a closed loop over the corpus and
   its query mix.

   query-cold runs every query as a whole [dbmeta db query] command:
   open (restart recovery, catalog), planning context (statistics and
   index catalog), parse, plan, index build, execute, render, close (a
   checkpoint).  query-warm runs the same mix against one engine and one
   planning context held open, with indexes built and the pool warmed
   in set-up, so it isolates planning, execution, materialization and
   the buffer pool on a table larger than the pool. *)

open Common
module E = Storage.Engine
module P = Planner.Physical
module R = Relational

(* Load the corpus the way [db load] + [db index create] leave it. *)
let load dir (corpus : Corpus.t) =
  let path = Filename.concat dir "papers.db" in
  let eng = E.open_db path in
  List.iter (fun (name, rel) -> E.save_table eng name rel) corpus.tables;
  ignore (Planner.Stats.analyze eng (List.map fst corpus.tables) : Planner.Stats.t);
  let idx = Planner.Indexes.load eng in
  List.iter
    (fun (table, attr, kind) -> Planner.Indexes.create eng idx { Planner.Indexes.table; attr; kind })
    [ ("papers", "pid", Planner.Indexes.Btree); ("authors", "aid", Planner.Indexes.Hash) ];
  E.close eng;
  path

let count_scans pred plan =
  P.fold (fun n p -> match p.P.node with P.Scan { access; _ } when pred access -> n + 1 | _ -> n) 0 plan

let index_scans = count_scans (fun access -> access <> P.Full)

let rows_scanned plan =
  P.fold
    (fun n p -> match p.P.node with P.Scan _ -> n + max 0 p.P.meta.P.actual_rows | _ -> n)
    0 plan

(* Fetch the index structures the chosen plan reads — building them on
   the first call in a planning context, as [Exec.run] would — so the
   build is timed on its own. *)
let build_indexes ctx plan =
  let eng = Planner.Plan.engine ctx and idx = Planner.Plan.indexes ctx in
  P.fold
    (fun () p ->
      match p.P.node with
      | P.Scan { table; access = P.Point { attr; via = Planner.Indexes.Hash; _ }; _ } ->
          ignore (Planner.Indexes.hash eng idx ~table ~attr : R.Tuple.t Access.Hash_index.t)
      | P.Scan
          { table; access = P.Point { attr; _ } | P.Range { attr; _ } | P.Ordered attr; _ }
        ->
          ignore (Planner.Indexes.btree eng idx ~table ~attr : R.Tuple.t Access.Btree.t)
      | _ -> ())
    () plan

type info = {
  plan_pages : int;  (** pager reads inside [Plan.plan] *)
  index_scans : int;
  scans : int;
  scanned : int;  (** rows the scans produced *)
  returned : int;
}

(* One query against a planning context: what [db query] prints. *)
let query m ctx text =
  let expr, schema =
    span m "relational.parse" (fun () ->
        let expr = R.Query_parser.parse text in
        (expr, R.Algebra.schema_of (Planner.Plan.catalog ctx) expr))
  in
  let pager = E.pager (Planner.Plan.engine ctx) in
  let reads0 = fst (Storage.Pager.io_counts pager) in
  let plan = span m "planner.plan" (fun () -> Planner.Plan.plan ctx expr) in
  let plan_pages = fst (Storage.Pager.io_counts pager) - reads0 in
  let index_scans = index_scans plan in
  if index_scans > 0 then span m "access.index_build" (fun () -> build_indexes ctx plan);
  let result = span m "planner.exec" (fun () -> Planner.Exec.run ctx plan) in
  let out = span m "relational.render" (fun () -> Corpus.render schema result) in
  ( out,
    {
      plan_pages;
      index_scans;
      scans = count_scans (fun _ -> true) plan;
      scanned = rows_scanned plan;
      returned = R.Relation.cardinality result;
    } )

let cold m path text =
  let eng =
    span m "storage.open" (fun () -> E.open_db ~metrics:m.metrics ~trace:m.trace path)
  in
  let ctx = span m "planner.ctx" (fun () -> Planner.Plan.make eng) in
  let result = query m ctx text in
  span m "storage.close" (fun () -> E.close eng);
  result

type state = {
  dir : string;
  path : string;
  corpus : Corpus.t;
  mutable session : (E.t * Planner.Plan.ctx) option;  (** query-warm's *)
}

(* query-warm's session: indexes built, pool warmed by one query of each
   kind. *)
let open_session m st =
  let eng = E.open_db ~metrics:m.metrics ~trace:m.trace st.path in
  let ctx = Planner.Plan.make eng in
  let idx = Planner.Plan.indexes ctx in
  List.iter
    (fun { Planner.Indexes.table; attr; kind } ->
      match kind with
      | Planner.Indexes.Btree ->
          ignore (Planner.Indexes.btree eng idx ~table ~attr : R.Tuple.t Access.Btree.t)
      | Planner.Indexes.Hash ->
          ignore (Planner.Indexes.hash eng idx ~table ~attr : R.Tuple.t Access.Hash_index.t))
    (Planner.Indexes.defs idx);
  Array.iteri
    (fun i (q : Corpus.query) -> if i < 4 then ignore (query m ctx q.text))
    st.corpus.queries;
  st.session <- Some (eng, ctx)

let close_session st =
  Option.iter (fun (eng, _) -> E.close eng) st.session;
  st.session <- None

type sample = { kind : Corpus.kind; shape : string; cost : cost; ok : bool; info : info option }

(* The closed loop: returns the samples and a digest of every output in
   order. *)
let measure st m budget expected =
  let samples = ref [] and outputs = ref "" in
  let queries = st.corpus.Corpus.queries in
  ignore
    (loop ~stop:(fun () -> trace_full m) budget (fun i ->
         let q = queries.(i mod Array.length queries) in
         m.op <- string_of_int i;
         let result, cost =
           costed (fun () ->
               try
                 Ok
                   (span m "bench.query" (fun () ->
                        match st.session with
                        | Some (_, ctx) -> query m ctx q.text
                        | None -> cold m st.path q.text))
               with e -> Error e)
         in
         let sample =
           match result with
           | Ok (out, info) ->
               outputs := Digest.string (!outputs ^ out);
               { kind = q.kind; shape = q.shape; cost; ok = String.equal out (Hashtbl.find expected q.text); info = Some info }
           | Error e ->
               Printf.eprintf "query failed: %s: %s\n%!" q.text (Printexc.to_string e);
               { kind = q.kind; shape = q.shape; cost; ok = false; info = None }
         in
         if not sample.ok then Printf.eprintf "wrong result: %s\n%!" q.text;
         samples := sample :: !samples) : int);
  (List.rev !samples, Digest.to_hex !outputs)

let kind_metrics samples =
  List.concat_map
    (fun k ->
      let ms = List.filter_map (fun s -> if s.kind = k then Some s.cost.wall else None) samples in
      [ metric (Corpus.kind_name k ^ "_ms_p50") "ms" (median ms) ])
    Corpus.kinds

(* The p50 of each query shape's cost field [f], combined by geometric
   mean so that every shape weighs the same (the p50 of the whole mix
   would sit on the boundary between two shapes' latency clusters). *)
let shape_p50 f samples =
  let shapes = List.sort_uniq compare (List.map (fun s -> s.shape) samples) in
  geomean
    (List.map
       (fun sh ->
         median (List.filter_map (fun s -> if s.shape = sh then Some (f s.cost) else None) samples))
       shapes)

let wall c = c.wall

(* The gated metrics, then the query names the readable report uses. *)
let e2e ~setup ~space_amp samples =
  let ok = List.length (List.filter (fun s -> s.ok) samples) in
  let ms = List.map (fun s -> s.cost.wall) samples in
  op_e2e ~setup ~space_amp ~ok ~p50:(fun f -> shape_p50 f samples) (List.map (fun s -> s.cost) samples)
  @ [
      metric "queries_per_s" "1/s" (1000. *. float_of_int ok /. List.fold_left ( +. ) 0. ms);
      metric "query_ms_p90" "ms" (percentile ms 0.9);
      metric "queries" "count" (float_of_int (List.length samples));
    ]
  @ kind_metrics samples

let layer_metrics ~warm ~split ~counters:d ~fsyncs ~alloc_kb samples =
  let n = float_of_int (List.length samples) in
  let infos = List.filter_map (fun s -> s.info) samples in
  let sum f = List.fold_left (fun a i -> a + f i) 0 infos in
  let per_query c = float_of_int c /. n in
  let ms name = Layers.mean_ms split name in
  [
    metric "storage.wal_bytes_per_query" "bytes" (per_query (get d "wal.append_bytes"));
    metric "storage.fsyncs_per_query" "count" (per_query fsyncs);
    metric "storage.pages_read_per_query" "pages" (per_query (get d "pager.reads"));
    metric "storage.pool_hit_ratio" "ratio"
      (ratio (get d "pool.hits") (get d "pool.hits" + get d "pool.misses"));
    metric "storage.pool_evictions_per_query" "pages" (per_query (get d "pool.evictions"));
    metric "storage.crc32_us_per_page" "us" (Layers.crc32_us_per_page ());
    metric "planner.plan_ms" "ms" (ms "planner.plan");
    metric "planner.plan_pages_read" "pages" (per_query (sum (fun i -> i.plan_pages)));
    metric "planner.exec_ms" "ms" (ms "planner.exec");
    metric "planner.rows_scanned_per_row_returned" "ratio"
      (ratio (sum (fun i -> i.scanned)) (sum (fun i -> i.returned)));
    metric "planner.index_scan_share" "ratio"
      (ratio (sum (fun i -> i.index_scans)) (sum (fun i -> i.scans)));
    metric "planner.spills_per_query" "count" (per_query (get d "plan.spills"));
    metric "access.index_build_ms" "ms" (ms "access.index_build");
    metric "relational.parse_us" "us" (1000. *. ms "relational.parse");
    metric "relational.render_ms" "ms" (ms "relational.render");
    metric "relational.alloc_kb_per_query" "KiB" alloc_kb;
  ]
  @
  if warm then []
  else
    [
      metric "storage.open_ms" "ms" (ms "storage.open");
      metric "storage.close_ms" "ms" (ms "storage.close");
      metric "planner.ctx_ms" "ms" (ms "planner.ctx");
    ]

let run ~warm (cfg : config) =
  let st, setup =
    repeated_setup cfg
      (fun dir ->
        let corpus = Corpus.generate ~sizes:cfg.corpus cfg.seed in
        let st = { dir; path = load dir corpus; corpus; session = None } in
        if warm then open_session (untraced ()) st;
        st)
      close_session
  in
  let expected = Corpus.expected st.corpus in
  (* the relations are on disk now; keeping them live would make every
     major collection of the timed loop mark them *)
  let st = { st with corpus = { st.corpus with tables = [] } } in
  Gc.compact ();
  let a0 = Gc.allocated_bytes () in
  let samples, outputs = measure st (untraced ()) cfg.budget expected in
  let alloc_kb = (Gc.allocated_bytes () -. a0) /. 1024. /. float_of_int (List.length samples) in
  let failed samples = List.length (List.filter (fun s -> not s.ok) samples) in
  if not cfg.traced then begin
    close_session st;
    let space_amp = ratio (dir_bytes st.dir) st.corpus.payload_bytes in
    outcome ~attempted:(List.length samples) ~failed:(failed samples)
      ~e2e:(e2e ~setup ~space_amp samples) ~layer:[] ~lines:[]
      ~fingerprint:[ ("outputs", outputs) ]
  end
  else begin
    let m = traced () in
    if warm then begin
      close_session st;
      open_session m st
    end;
    let c0 = counters m and f0 = fsyncs m in
    let tsamples, toutputs = measure st m cfg.budget expected in
    let d = delta c0 (counters m) in
    let fsyncs = fsyncs m - f0 in
    close_session st;
    write_trace cfg m;
    let split = Layers.split m.trace in
    outcome
      ~attempted:(List.length samples + List.length tsamples)
      ~failed:(failed samples + failed tsamples) ~e2e:[]
      ~layer:
        (layer_metrics ~warm ~split ~counters:d ~fsyncs ~alloc_kb tsamples
        @ Layers.trace_metrics m split ~untraced_ms:(shape_p50 wall samples)
            ~traced_ms:(shape_p50 wall tsamples))
      ~lines:(Layers.split_lines split)
      ~fingerprint:(("outputs", toutputs) :: fingerprint_of_counters d)
  end
