(* The per-layer view of a traced run: which layer a span belongs to,
   each layer's self time, and the fixed list of per-layer metrics every
   traced run reports. *)

open Common

let layers = [ "storage"; "planner"; "access"; "relational"; "replication"; "bench" ]

(* Benchmark spans are named after the layer whose public function they
   wrap; the program's own spans after their component. *)
let layer_of name =
  let prefix =
    match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
  in
  match prefix with
  | "storage" | "engine" | "wal" | "pager" | "pool" | "lock" | "exec" -> "storage"
  | "planner" | "plan" | "semantic" | "certify" -> "planner"
  | "access" -> "access"
  | "relational" -> "relational"
  | "replication" | "repl" -> "replication"
  | _ -> "bench"

(* Operation spans: one per query, batch or recovery sample, at top
   level; their self time is the harness's own share. *)
let is_op name = String.starts_with ~prefix:"bench." name

type split = {
  ops : int;
  op_ns : int;  (** total duration of the operation spans *)
  self_ns : (string * int) list;  (** per layer; sums to [op_ns] *)
  events : Obs.Trace.event list;  (** lane-0 spans inside operation spans *)
}

(* Self time = a span's duration minus its direct children's.  Events
   arrive in close order, so the children of a span at depth d are the
   depth-(d+1) events closed since the previous depth-d event; spans
   outside an operation (set-up, warm-up) are discarded.  Lanes other
   than 0 hold the executor's per-transaction spans, which overlap each
   other and are not part of the call tree. *)
let split trace =
  let child = Array.make 512 0 in
  let self = Hashtbl.create 8 in
  let pending = ref [] and kept = ref [] in
  let ops = ref 0 and op_ns = ref 0 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.tid = 0 then begin
        let d = e.depth in
        let own = e.dur_ns - child.(d + 1) in
        child.(d + 1) <- 0;
        child.(d) <- child.(d) + e.dur_ns;
        pending := (e, own) :: !pending;
        if d = 0 then begin
          child.(0) <- 0;
          if is_op e.name then begin
            incr ops;
            op_ns := !op_ns + e.dur_ns;
            List.iter
              (fun ((e : Obs.Trace.event), own) ->
                let l = layer_of e.name in
                Hashtbl.replace self l
                  (own + Option.value ~default:0 (Hashtbl.find_opt self l));
                kept := e :: !kept)
              !pending
          end;
          pending := []
        end
      end)
    (Obs.Trace.events trace);
  {
    ops = !ops;
    op_ns = !op_ns;
    self_ns =
      List.map (fun l -> (l, Option.value ~default:0 (Hashtbl.find_opt self l))) layers;
    events = !kept;
  }

(* Durations (ms) of the benchmark spans of one name. *)
let durations split name =
  List.filter_map
    (fun (e : Obs.Trace.event) ->
      if e.name = name then Some (float_of_int e.dur_ns /. 1e6) else None)
    split.events

let mean_ms split name = mean (durations split name)

let share_metrics split =
  List.map
    (fun (l, ns) ->
      metric (Printf.sprintf "self.%s_share" l) "ratio" (ratio ns split.op_ns))
    split.self_ns

let split_lines split =
  Printf.sprintf "self-time split over %d traced operations (%.3f ms each):"
    split.ops
    (float_of_int split.op_ns /. 1e6 /. float_of_int (max 1 split.ops))
  :: List.map
       (fun (l, ns) ->
         Printf.sprintf "  %-12s %9.3f ms/op  %5.1f%%" l
           (float_of_int ns /. 1e6 /. float_of_int (max 1 split.ops))
           (100. *. ratio ns split.op_ns))
       split.self_ns

(* Every per-layer metric BENCHMARK.json declares, in report order: the
   ones a gated workload (query-cold, repl-restart) makes non-zero, and
   the trace's own.  A traced run reports all of them; one
   a workload does not exercise reads 0.  The commit loops' own metrics
   are printed by their runs, not declared. *)
let per_layer =
  [
    ("storage.open_ms", "ms");
    ("storage.close_ms", "ms");
    ("storage.wal_bytes_per_query", "bytes");
    ("storage.fsyncs_per_query", "count");
    ("storage.pages_read_per_query", "pages");
    ("storage.pool_hit_ratio", "ratio");
    ("storage.pool_evictions_per_query", "pages");
    ("storage.crc32_us_per_page", "us");
    ("storage.recover_ms_p50", "ms");
    ("storage.recover_ms_p90", "ms");
    ("storage.recovery_log_kib", "KiB");
    ("storage.recovery_redone", "count");
    ("storage.recovery_undone", "count");
    ("storage.recovery_us_per_log_kib", "us/KiB");
    ("planner.ctx_ms", "ms");
    ("planner.plan_ms", "ms");
    ("planner.plan_pages_read", "pages");
    ("planner.exec_ms", "ms");
    ("planner.rows_scanned_per_row_returned", "ratio");
    ("planner.index_scan_share", "ratio");
    ("planner.spills_per_query", "count");
    ("access.index_build_ms", "ms");
    ("relational.parse_us", "us");
    ("relational.render_ms", "ms");
    ("relational.alloc_kb_per_query", "KiB");
    ("replication.open_ms", "ms");
    ("replication.ship_bytes_per_op", "bytes");
    ("replication.msgs_per_op", "count");
    ("replication.snapshots_per_op", "count");
    ("replication.net_ticks_per_op", "ticks");
    ("replication.fsyncs_per_op", "count");
    ("trace.overhead_ratio", "ratio");
    ("trace.dropped_spans", "count");
  ]
  @ List.map (fun l -> (Printf.sprintf "self.%s_share" l, "ratio")) layers

(* The full per-layer list, taking the workload's values and 0 for the
   metrics it does not exercise.  A name outside the list is a bug. *)
let complete measured =
  List.iter
    (fun m ->
      if not (List.mem_assoc m.name per_layer) then
        invalid_arg ("unknown per-layer metric " ^ m.name))
    measured;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.name = name) measured with
      | Some m -> m
      | None -> metric name unit 0.)
    per_layer

(* What one CRC-32 of a 4 KiB page costs (every page read and written
   pays it), as the median of repeated timed bursts. *)
let crc32_us_per_page () =
  let page = Bytes.init Storage.Page.size (fun i -> Char.chr (i * 31 land 255)) in
  let burst = 200 in
  median
    (List.init 15 (fun _ ->
         snd
           (timed (fun () ->
                for _ = 1 to burst do
                  ignore (Support.Crc32.bytes page : int)
                done))
         *. 1000. /. float_of_int burst))

(* The traced run's closing metrics: overhead against the untraced half,
   dropped spans, and the self-time shares. *)
let trace_metrics m split ~untraced_ms ~traced_ms =
  metric "trace.overhead_ratio" "ratio"
    (if untraced_ms > 0. then traced_ms /. untraced_ms else 0.)
  :: metric "trace.dropped_spans" "count" (float_of_int (Obs.Trace.dropped m.trace))
  :: share_metrics split
