(* The transaction workloads.  Their batches are 8 generated
   transactions x 8 operations (half writes, Zipf 1.0 over the key
   space).

   txn-commit runs batches through the SS2PL executor on one engine (WAL
   fsync, lock manager, restarts), restarting it from the same crashed
   files every 32 batches; txn-replicated runs the same programs one
   after another through a replication group (a primary and 2 replicas,
   quorum acknowledgement) as [db exec --replicas] does; and
   repl-restart times reopening such a group after a crash, with one
   replica left behind that must be caught up. *)

open Common
module E = Storage.Engine
module X = Storage.Executor
module G = Replication.Group
module M = Replication.Repl_meta
module S = Transactions.Schedule

let params items =
  { Transactions.Workload.txns = 8; ops_per_txn = 8; items; skew = 1.0; write_ratio = 0.5 }

let item i = Printf.sprintf "x%d" i

(* User payload a committed program writes: the item name and its value. *)
let written prog =
  List.fold_left
    (fun acc -> function S.Write it -> acc + String.length it + 8 | _ -> acc)
    0 prog

let batch_payload programs = Array.fold_left (fun a p -> a + written p) 0 programs

(* One transaction writing every item. *)
let preload items = [| List.init items (fun i -> S.Write (item i)) |]

(* Each run cycles through a pool of batches generated in set-up, so the
   timed loop does no generation (the generator allocates a weight array
   per draw, which would otherwise dominate the process's heap). *)
let pool_size = 64

let generate_pool cfg =
  let rng = Support.Rng.create cfg.seed in
  Array.init pool_size (fun _ -> Transactions.Workload.generate rng (params cfg.items))

type sample = { cost : cost; txns : int; committed : int; restarts : int; steps : int; wasted : int }

let sum f samples = List.fold_left (fun a s -> a + f s) 0 samples
let sum_ms ms = List.fold_left ( +. ) 0. ms
let p50 samples = median (List.map (fun s -> s.cost.wall) samples)

let batch_e2e ~setup ~space_amp samples =
  let costs = List.map (fun s -> s.cost) samples in
  let ms = List.map (fun c -> c.wall) costs in
  let commits = sum (fun s -> s.committed) samples in
  op_e2e ~setup ~space_amp ~ok:commits ~p50:(fun f -> median (List.map f costs)) costs
  @ [
      metric "commits_per_s" "1/s" (1000. *. float_of_int commits /. sum_ms ms);
      metric "batch_ms_p50" "ms" (median ms);
      metric "batch_ms_p90" "ms" (percentile ms 0.9);
      metric "batches" "count" (float_of_int (List.length samples));
    ]

(* --- txn-commit ------------------------------------------------------------- *)

(* A run is a sequence of identical segments: restore the crashed set-up
   files, restart (one timed recovery, its items checked against the
   model), run the pool's first [segment_batches] batches, crash.  The
   WAL is never truncated and both recovery and the model check grow
   superlinearly with it, so restoring keeps every segment's log the
   same size: a faster machine runs more segments, not different
   ones. *)
let segment_batches = 32

type commit_state = {
  dir : string;
  path : string;
  batches : Transactions.Simulation.spec array array;
  fixture : string * string;  (** the crashed set-up db and WAL bytes *)
  fixture_payload : int;  (** user bytes committed before the crash *)
}

let run_batch cfg m eng programs =
  let stats =
    span m "storage.executor" (fun () ->
        X.run ~config:{ X.default_config with seed = cfg.seed } eng programs)
  in
  (stats.X.committed, stats)

(* Preload every item, run the warm batches, leave two transactions in
   flight whose writes a third one's commit makes durable (so recovery
   has losers to undo), crash. *)
let setup_commit cfg dir =
  let path = Filename.concat dir "txn.db" in
  let eng = E.open_db path in
  let batches = generate_pool cfg in
  let run programs =
    let committed, _ = run_batch cfg (untraced ()) eng programs in
    if committed = Array.length programs then batch_payload programs else 0
  in
  let payload = ref (run (preload cfg.items)) in
  for k = 1 to cfg.warm_batches do
    payload := !payload + run batches.(k mod pool_size)
  done;
  List.iteri
    (fun k txn ->
      for i = 0 to 7 do
        E.write eng ~txn (item ((8 * k) + i)) (-1)
      done)
    [ E.begin_txn eng; E.begin_txn eng ];
  payload := !payload + run [| [ S.Write (item (cfg.items - 1)) ] |];
  E.crash eng;
  let fixture = (read_file path, read_file (E.wal_path path)) in
  { dir; path; batches; fixture; fixture_payload = !payload }

let restore st =
  let db, wal = st.fixture in
  restore_file st.path db;
  restore_file (E.wal_path st.path) wal

(* The committed state [Executor.model_divergence] expects after
   recovering the log at [path]: the model's, zero items omitted.  Every
   segment restarts from the same bytes, so it is computed once and each
   recovered copy is compared with it, as [model_divergence] compares
   one. *)
let model_state path =
  Storage.Wal.read_entries (E.wal_path path)
  |> List.map (fun e -> e.Storage.Wal.record)
  |> Storage.Wal.to_model |> Transactions.Recovery.committed_state
  |> List.filter (fun (_, v) -> v <> 0)
  |> List.sort compare

type recovery = { rec_ms : float; rec_ok : bool }

(* Returns the batch samples, the recovery samples with the first
   recovery's outcome (every segment recovers the same bytes), and
   (traced runs) the registry counters and fsyncs of the batches
   alone. *)
let measure_segments cfg st m budget expected =
  let samples = ref [] and recs = ref [] and first = ref None in
  let counted = Hashtbl.create 32 and fsync_n = ref 0 and fsync_ns = ref 0 in
  ignore
    (loop ~stop:(fun () -> trace_full m) budget (fun seg ->
         restore st;
         m.op <- Printf.sprintf "recover%d" seg;
         let eng, rec_ms =
           span m "bench.recover" (fun () ->
               timed (fun () ->
                   span m "storage.open" (fun () ->
                       E.open_db ~metrics:m.metrics ~trace:m.trace st.path)))
         in
         let rec_ok = E.items eng = expected in
         if not rec_ok then Printf.eprintf "segment %d: recovered items diverge from the model\n%!" seg;
         if seg = 0 then first := E.last_recovery eng;
         recs := { rec_ms; rec_ok } :: !recs;
         let c0 = if is_traced m then counters m else [] in
         let f0 = fsyncs m and ns0 = fsync_ns_total m in
         for b = 0 to segment_batches - 1 do
           let programs = st.batches.(b) in
           m.op <- Printf.sprintf "%d.%d" seg b;
           let (committed, stats), cost =
             costed (fun () -> span m "bench.batch" (fun () -> run_batch cfg m eng programs))
           in
           let s =
             {
               cost;
               txns = Array.length programs;
               committed;
               restarts = stats.X.restarts;
               steps = stats.X.steps;
               wasted = stats.X.wasted_ops;
             }
           in
           if s.committed <> s.txns then
             Printf.eprintf "segment %d batch %d: %d of %d committed\n%!" seg b committed s.txns;
           samples := s :: !samples
         done;
         if is_traced m then
           List.iter
             (fun (n, v) ->
               Hashtbl.replace counted n (v + Option.value ~default:0 (Hashtbl.find_opt counted n)))
             (delta c0 (counters m));
         fsync_n := !fsync_n + fsyncs m - f0;
         fsync_ns := !fsync_ns + fsync_ns_total m - ns0;
         E.crash eng)
      : int);
  ( List.rev !samples,
    (List.rev !recs, !first),
    (List.sort compare (List.of_seq (Hashtbl.to_seq counted)), !fsync_n, !fsync_ns) )

(* Restart recovery of [log_bytes] of WAL: its latencies [ms] and the
   outcome of one recovery (every sample recovers the same bytes). *)
let recovery_metrics ~log_bytes ms outcome =
  let kib = float_of_int log_bytes /. 1024. in
  let field f = float_of_int (match outcome with Some o -> f o | None -> 0) in
  ( [
      metric "recover_ms_p50" "ms" (median ms);
      metric "recover_ms_p90" "ms" (percentile ms 0.9);
      metric "recoveries" "count" (float_of_int (List.length ms));
    ],
    [
      metric "storage.recover_ms_p50" "ms" (median ms);
      metric "storage.recover_ms_p90" "ms" (percentile ms 0.9);
      metric "storage.recovery_log_kib" "KiB" kib;
      metric "storage.recovery_redone" "count" (field (fun o -> o.Storage.Recovery.redo_applied));
      metric "storage.recovery_undone" "count" (field (fun o -> o.Storage.Recovery.undone));
      metric "storage.recovery_us_per_log_kib" "us/KiB" (1000. *. median ms /. kib);
    ] )

let run_commit (cfg : config) =
  let st, setup = repeated_setup cfg (setup_commit cfg) ignore in
  restore st;
  let expected = model_state st.path in
  let samples, recs, _ = measure_segments cfg st (untraced ()) cfg.budget expected in
  let traced =
    if not cfg.traced then None
    else
      let m = traced () in
      let ts, trecs, counted = measure_segments cfg st m cfg.budget expected in
      Some (m, ts, trecs, counted)
  in
  (* the last segment's crashed files: the fixture plus one segment *)
  let segment_payload =
    batch_payload (Array.concat (Array.to_list (Array.sub st.batches 0 segment_batches)))
  in
  let space_amp = ratio (dir_bytes st.dir) (st.fixture_payload + segment_payload) in
  let model_ok = X.model_divergence ~path:st.path = None in
  if not model_ok then prerr_endline "the last crashed segment diverges from the model";
  let all_samples = samples @ Option.fold ~none:[] ~some:(fun (_, ts, _, _) -> ts) traced in
  let all_recs = fst recs @ Option.fold ~none:[] ~some:(fun (_, _, r, _) -> fst r) traced in
  let attempted = sum (fun s -> s.txns) all_samples + List.length all_recs + 1 in
  let failed =
    sum (fun s -> s.txns - s.committed) all_samples
    + List.length (List.filter (fun r -> not r.rec_ok) all_recs)
    + if model_ok then 0 else 1
  in
  let log_bytes = String.length (snd st.fixture) in
  let rec_ms (recs, _) = List.map (fun r -> r.rec_ms) recs in
  match traced with
  | None ->
      outcome ~attempted ~failed
        ~e2e:
          (batch_e2e ~setup ~space_amp samples
          @ fst (recovery_metrics ~log_bytes (rec_ms recs) (snd recs)))
        ~layer:[] ~lines:[] ~fingerprint:[]
  | Some (m, ts, trecs, (d, fsyncs, fsync_ns)) ->
      write_trace cfg m;
      let split = Layers.split m.trace in
      let per_commit c = ratio c (sum (fun s -> s.committed) ts) in
      (* commit-loop metrics no gated workload has: printed, not declared *)
      let commit_lines =
        [
          metric "storage.fsyncs_per_commit" "count" (per_commit fsyncs);
          metric "storage.fsync_ms_mean" "ms"
            (float_of_int fsync_ns /. 1e6 /. float_of_int (max 1 fsyncs));
          metric "storage.wal_bytes_per_commit" "bytes" (per_commit (get d "wal.append_bytes"));
          metric "storage.restarts_per_commit" "count" (per_commit (sum (fun s -> s.restarts) ts));
          metric "storage.lock_blocks_per_commit" "count" (per_commit (get d "lock.blocks"));
          metric "storage.useful_op_ratio" "ratio"
            (1. -. ratio (sum (fun s -> s.wasted) ts) (sum (fun s -> s.steps) ts));
        ]
      in
      outcome ~attempted ~failed ~e2e:[]
        ~layer:
          (metric "storage.crc32_us_per_page" "us" (Layers.crc32_us_per_page ())
           :: metric "storage.open_ms" "ms" (mean (rec_ms trecs))
           :: snd (recovery_metrics ~log_bytes (rec_ms trecs) (snd trecs))
          @ Layers.trace_metrics m split ~untraced_ms:(p50 samples) ~traced_ms:(p50 ts))
        ~lines:(("commit loop:" :: List.map metric_line commit_lines) @ Layers.split_lines split)
        ~fingerprint:
          (("model_ok", string_of_bool model_ok)
          :: ( "recovery",
               Option.fold ~none:"none" ~some:Storage.Recovery.outcome_to_string (snd trecs) )
          :: fingerprint_of_counters d)

(* --- txn-replicated and repl-restart ---------------------------------------- *)

type repl_state = {
  base : string;
  mutable g : G.t;
  rbatches : Transactions.Simulation.spec array array;
  mutable rpayload : int;
  mutable value : int;  (** distinct written values, as [db exec] draws them *)
}

let open_group m base =
  G.open_group ~replicas:2 ~sync:M.Quorum ~metrics:m.metrics ~trace:m.trace base

(* The programs one after another, as [db exec --replicas] runs them;
   returns how many were acknowledged by a quorum. *)
let repl_batch m st programs =
  Array.fold_left
    (fun acked prog ->
      let txn = span m "replication.begin" (fun () -> G.begin_txn st.g) in
      List.iter
        (function
          | S.Read it -> ignore (span m "replication.read" (fun () -> G.read st.g it) : int)
          | S.Write it ->
              st.value <- st.value + 1;
              span m "replication.write" (fun () -> G.write st.g ~txn it st.value)
          | S.Commit | S.Abort -> ())
        prog;
      match span m "replication.commit" (fun () -> G.commit st.g ~txn) with
      | G.Acked ->
          st.rpayload <- st.rpayload + written prog;
          acked + 1
      | G.Local_only -> acked)
    0 programs

let warm_group st ~from ~upto =
  for k = from to upto - 1 do
    ignore (repl_batch (untraced ()) st st.rbatches.(k mod pool_size) : int)
  done

(* A fresh group with every item preloaded. *)
let open_repl cfg dir =
  let base = Filename.concat dir "repl.db" in
  let st = { base; g = open_group (untraced ()) base; rbatches = generate_pool cfg; rpayload = 0; value = 0 } in
  if repl_batch (untraced ()) st (preload cfg.items) <> 1 then failwith "preload missed quorum";
  st

(* The replicas that do not hold the primary's items. *)
let diverged_replicas g =
  let items = G.items g in
  List.filter
    (fun k ->
      match G.replica g k with Some r -> Replication.Replica.state r <> items | None -> true)
    (G.replica_ids g)

let replication_layer d ~ops ~fsyncs ~ticks =
  let per_op c = ratio c ops in
  [
    metric "replication.ship_bytes_per_op" "bytes" (per_op (get d "repl.ship_bytes"));
    metric "replication.msgs_per_op" "count" (per_op (get d "repl.msgs"));
    metric "replication.snapshots_per_op" "count" (per_op (get d "repl.snapshots"));
    metric "replication.net_ticks_per_op" "ticks" (per_op ticks);
    metric "replication.fsyncs_per_op" "count" (per_op fsyncs);
    metric "storage.crc32_us_per_page" "us" (Layers.crc32_us_per_page ());
  ]

let measure_repl st m budget =
  let samples = ref [] in
  ignore
    (loop ~stop:(fun () -> trace_full m) budget (fun i ->
         let programs = st.rbatches.(i mod pool_size) in
         m.op <- string_of_int i;
         let acked, cost = costed (fun () -> span m "bench.batch" (fun () -> repl_batch m st programs)) in
         let s =
           { cost; txns = Array.length programs; committed = acked;
             restarts = 0; steps = 0; wasted = 0 }
         in
         if acked <> s.txns then Printf.eprintf "batch %d: %d of %d acknowledged\n%!" i acked s.txns;
         samples := s :: !samples)
      : int);
  List.rev !samples

let run_repl (cfg : config) =
  let st, setup =
    repeated_setup cfg
      (fun dir ->
        let st = open_repl cfg dir in
        warm_group st ~from:0 ~upto:cfg.warm_batches;
        st)
      (fun st -> G.close st.g)
  in
  let samples = measure_repl st (untraced ()) cfg.budget in
  let traced =
    if not cfg.traced then None
    else begin
      let m = traced () in
      G.close st.g;
      st.g <- open_group m st.base;
      let c0 = counters m and f0 = fsyncs m and ticks0 = G.net_ticks st.g in
      let ts = measure_repl st m cfg.budget in
      let d = delta c0 (counters m) in
      Some (m, ts, d, fsyncs m - f0, G.net_ticks st.g - ticks0, G.lag st.g)
    end
  in
  let diverged = diverged_replicas st.g in
  G.close st.g;
  List.iter (fun k -> Printf.eprintf "replica %d diverges from the primary\n%!" k) diverged;
  let space_amp = ratio (dir_bytes (Filename.dirname st.base)) st.rpayload in
  let all = samples @ Option.fold ~none:[] ~some:(fun (_, ts, _, _, _, _) -> ts) traced in
  let attempted = sum (fun s -> s.txns) all + 1 in
  let failed = sum (fun s -> s.txns - s.committed) all + if diverged = [] then 0 else 1 in
  match traced with
  | None ->
      outcome ~attempted ~failed ~e2e:(batch_e2e ~setup ~space_amp samples) ~layer:[] ~lines:[]
        ~fingerprint:[]
  | Some (m, ts, d, fsyncs, ticks, lag) ->
      write_trace cfg m;
      let split = Layers.split m.trace in
      (* commit-loop metrics no gated workload has: printed, not declared *)
      let commit_lines =
        [
          metric "replication.commit_ms_p50" "ms" (median (Layers.durations split "replication.commit"));
          metric "replication.write_us_p50" "us"
            (1000. *. median (Layers.durations split "replication.write"));
          metric "replication.lag_bytes_end" "bytes" (float_of_int lag);
        ]
      in
      outcome ~attempted ~failed ~e2e:[]
        ~layer:
          (replication_layer d ~ops:(sum (fun s -> s.committed) ts) ~fsyncs ~ticks
          @ Layers.trace_metrics m split ~untraced_ms:(p50 samples) ~traced_ms:(p50 ts))
        ~lines:(("commit loop:" :: List.map metric_line commit_lines) @ Layers.split_lines split)
        ~fingerprint:(("net_ticks", string_of_int ticks) :: fingerprint_of_counters d)

(* repl-restart's set-up: node 2's files are kept as they were after the
   preload and half the warm batches, everyone else's after all of them,
   two transactions left in flight, and a crash — the group a restart
   finds when one replica fell behind. *)
type restart_state = {
  rbase : string;
  files : (string * string) list;
  payload : int;
  expected : (string * int) list;  (** the committed items *)
}

let setup_restart cfg dir =
  let st = open_repl cfg dir in
  warm_group st ~from:0 ~upto:(cfg.warm_batches / 2);
  let node2 = M.node_path st.base 2 in
  let behind =
    List.filter_map
      (fun p -> if Sys.file_exists p then Some (p, read_file p) else None)
      [ node2; E.wal_path node2; M.epoch_path node2 ]
  in
  warm_group st ~from:(cfg.warm_batches / 2) ~upto:cfg.warm_batches;
  (* two transactions in flight whose writes a third one's commit makes
     durable, so the primary's recovery has losers to undo *)
  let committed = G.items st.g in
  List.iteri
    (fun k txn ->
      for i = 0 to 7 do
        G.write st.g ~txn (item ((8 * k) + i)) (-1)
      done)
    [ G.begin_txn st.g; G.begin_txn st.g ];
  if repl_batch (untraced ()) st [| [ S.Write (item (cfg.items - 1)) ] |] <> 1 then
    failwith "set-up commit missed quorum";
  let last = item (cfg.items - 1) in
  let expected = List.sort compare ((last, st.value) :: List.remove_assoc last committed) in
  G.crash st.g;
  let files =
    List.map
      (fun f ->
        let p = Filename.concat dir f in
        (p, Option.value ~default:(read_file p) (List.assoc_opt p behind)))
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  { rbase = st.base; files; payload = st.rpayload; expected }

(* One restart: restore the crashed files, time [Group.open_group]
   (primary restart recovery, replica attach and prefix check, catch-up
   of node 2), then the primary must hold the committed items and every
   replica the primary's. *)
let measure_restart st m budget =
  let samples = ref [] and ticks = ref 0 and recovery = ref None in
  ignore
    (loop ~stop:(fun () -> trace_full m) budget (fun i ->
         restore_dir (Filename.dirname st.rbase) st.files;
         m.op <- string_of_int i;
         let g, cost =
           span m "bench.restart" (fun () ->
               costed (fun () -> span m "replication.open" (fun () -> open_group m st.rbase)))
         in
         let ok = G.items g = st.expected && diverged_replicas g = [] in
         if not ok then Printf.eprintf "restart %d: the group's items diverge\n%!" i;
         ticks := !ticks + G.net_ticks g;
         if i = 0 then recovery := E.last_recovery (G.primary g);
         G.crash g;
         samples := (cost, ok) :: !samples)
      : int);
  (List.rev !samples, !ticks, !recovery)

let run_restart (cfg : config) =
  let st, setup = repeated_setup cfg (setup_restart cfg) ignore in
  let samples, _, _ = measure_restart st (untraced ()) cfg.budget in
  let space_amp =
    ratio (List.fold_left (fun a (_, bytes) -> a + String.length bytes) 0 st.files) st.payload
  in
  let costs samples = List.map fst samples in
  let ms samples = List.map (fun c -> c.wall) (costs samples) in
  let failed samples = List.length (List.filter (fun (_, ok) -> not ok) samples) in
  if not cfg.traced then
    outcome ~attempted:(List.length samples) ~failed:(failed samples)
      ~e2e:
        (op_e2e ~setup ~space_amp ~ok:(List.length samples - failed samples)
           ~p50:(fun f -> median (List.map f (costs samples))) (costs samples)
        @ [ metric "restarts" "count" (float_of_int (List.length samples)) ])
      ~layer:[] ~lines:[] ~fingerprint:[]
  else begin
    let m = traced () in
    let c0 = counters m and f0 = fsyncs m in
    let ts, ticks, recovery = measure_restart st m cfg.budget in
    let d = delta c0 (counters m) in
    let fsyncs = fsyncs m - f0 in
    write_trace cfg m;
    let split = Layers.split m.trace in
    (* the primary's restart recovery, inside each [Group.open_group]:
       only the primary's engine is opened with the trace *)
    let log_bytes = String.length (List.assoc (E.wal_path st.rbase) st.files) in
    let recovery_ms = Layers.durations split "engine.recovery" in
    outcome
      ~attempted:(List.length samples + List.length ts)
      ~failed:(failed samples + failed ts) ~e2e:[]
      ~layer:
        ((metric "replication.open_ms" "ms" (mean (ms ts))
         :: replication_layer d ~ops:(List.length ts) ~fsyncs ~ticks)
        @ snd (recovery_metrics ~log_bytes recovery_ms recovery)
        @ Layers.trace_metrics m split ~untraced_ms:(median (ms samples)) ~traced_ms:(median (ms ts)))
      ~lines:(Layers.split_lines split)
      ~fingerprint:(("net_ticks", string_of_int ticks) :: fingerprint_of_counters d)
  end
