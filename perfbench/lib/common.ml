(* Plumbing shared by the benchmark's workloads: the clock, scratch
   files, order statistics, run budgets, the traced/untraced
   instrumentation mode, and metric records. *)

(* --- clock ---------------------------------------------------------------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_between t0 t1 = float_of_int (t1 - t0) /. 1e6

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_between t0 (now_ns ()))

(* The process's CPU time, user + system, in ms.  On Linux, getrusage
   reports the scheduler's exact run time: it leaves out time blocked on
   the disk and, under paravirtual steal accounting, time the host gave
   the virtual CPU to another guest.  NOTES.md (Steadiness) says why the
   gated timings use it. *)
let cpu_ms () = Sys.time () *. 1000.

(* What one operation cost: its wall-clock latency and the CPU time the
   process spent in it, both in ms. *)
type cost = { wall : float; cpu : float }

let costed f =
  let t0 = now_ns () and c0 = cpu_ms () in
  let r = f () in
  (r, { wall = ms_between t0 (now_ns ()); cpu = cpu_ms () -. c0 })

(* --- files ---------------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* A fresh empty directory (whatever was there is removed). *)
let fresh_dir dir =
  rm_rf dir;
  mkdir_p dir;
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Put a crashed file image back, durably: a file restored but left dirty
   in the page cache would make the program's next fsync write it out,
   which a real restart, finding its files on disk, does not pay.  Only
   what the last operation changed is written back: a file it did not
   touch is left alone and one it only appended to is truncated, so the
   restore's own I/O stays small beside the operation's. *)
let restore_file path s =
  let current = if Sys.file_exists path then Some (read_file path) else None in
  if current <> Some s then begin
    let appended =
      match current with
      | Some c -> String.length c > String.length s && String.starts_with ~prefix:s c
      | None -> false
    in
    let flags = if appended then [ Unix.O_WRONLY ] else [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] in
    let fd = Unix.openfile path flags 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        if appended then Unix.ftruncate fd (String.length s)
        else if Unix.write_substring fd s 0 (String.length s) <> String.length s then
          failwith ("short write restoring " ^ path);
        Unix.fsync fd)
  end

(* Make [dir] hold exactly [files] (path, bytes) again: remove the files
   the last operation created, durably, and restore the rest. *)
let restore_dir dir files =
  let extra =
    List.filter
      (fun p -> not (List.mem_assoc p files))
      (List.map (Filename.concat dir) (Array.to_list (Sys.readdir dir)))
  in
  if extra <> [] then begin
    List.iter Sys.remove extra;
    let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
  end;
  List.iter (fun (p, bytes) -> restore_file p bytes) files

let file_size path = if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

(* Bytes held by every file directly inside [dir]. *)
let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + file_size (Filename.concat dir f))
    0 (Sys.readdir dir)

(* --- order statistics ----------------------------------------------------- *)

(* Nearest-rank percentile, [q] in (0, 1]; 0 on an empty sample. *)
let percentile xs q =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs -> Float.exp (mean (List.map Float.log xs))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* --- budgets -------------------------------------------------------------- *)

(* A timed loop runs for a wall-clock span (the benchmark) or for a fixed
   number of operations (the determinism test, whose counters must not
   depend on machine speed). *)
type budget = Seconds of float | Ops of int

(* Call [f i] for i = 0, 1, ... until the budget is spent or [stop ()]
   holds; at least one call is made.  Returns the number of calls. *)
let loop ?(stop = fun () -> false) budget f =
  let deadline =
    match budget with
    | Seconds s -> now_ns () + int_of_float (s *. 1e9)
    | Ops _ -> max_int
  in
  let rec go i =
    let spent =
      match budget with Ops n -> i >= n | Seconds _ -> now_ns () >= deadline
    in
    if i > 0 && (spent || stop ()) then i
    else begin
      f i;
      go (i + 1)
    end
  in
  go 0

(* --- instrumentation mode ------------------------------------------------- *)

(* Untraced runs hand the program the shared no-op registry and
   recorder; traced runs hand it live ones, so the program's own spans
   ([engine.*], [wal.*], [plan.*], [repl.*]) nest under the benchmark's.
   [op] is the id every benchmark span of the current operation carries. *)
type mode = { metrics : Obs.Registry.t; trace : Obs.Trace.t; mutable op : string }

let untraced () = { metrics = Obs.Registry.noop; trace = Obs.Trace.noop; op = "" }

(* Large enough that a traced run never wraps the ring (see [trace_full]),
   so every span of every traced operation survives to the split. *)
let trace_capacity = 1 lsl 18

let traced () =
  {
    metrics = Obs.Registry.create ();
    trace = Obs.Trace.create ~capacity:trace_capacity ~clock:now_ns ();
    op = "";
  }

let is_traced m = Obs.Trace.enabled m.trace

(* Stop a traced loop while the ring still has room for one more
   operation's spans (a batch records a few hundred at most). *)
let trace_full m =
  is_traced m && Obs.Trace.recorded m.trace > trace_capacity - 16_384

(* A benchmark span around one call into a layer. *)
let span m name f =
  if is_traced m then Obs.Trace.with_span m.trace ~args:[ ("op", m.op) ] name f
  else f ()

let counter m name =
  Option.value ~default:0 (Obs.Registry.counter_value m.metrics name)

(* fsyncs the program has made: WAL fsyncs (counted by the [wal.fsync_ns]
   timer) plus pager fsyncs. *)
let fsyncs m =
  Obs.Histogram.count (Obs.Registry.histogram m.metrics "wal.fsync_ns")
  + counter m "pager.syncs"

let fsync_ns_total m =
  Obs.Histogram.sum (Obs.Registry.histogram m.metrics "wal.fsync_ns")

let heap_mb_peak () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* --- metrics -------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* How a report prints one metric. *)
let metric_line m = Printf.sprintf "  %-40s %14.6f %s" m.name m.value m.unit

(* Registry counters as (name, value), and the change between two
   snapshots. *)
let counters m =
  List.filter_map
    (fun n -> Option.map (fun v -> (n, v)) (Obs.Registry.counter_value m.metrics n))
    (Obs.Registry.names m.metrics)

let delta before after =
  List.map
    (fun (n, v) -> (n, v - Option.value ~default:0 (List.assoc_opt n before)))
    after

let get counters name = Option.value ~default:0 (List.assoc_opt name counters)

(* The counters a fixed seed and a fixed operation count must reproduce
   exactly (the determinism test compares them). *)
let deterministic counters =
  List.filter
    (fun (n, _) ->
      List.mem n
        [ "pager.reads"; "pager.writes"; "wal.appends"; "wal.flushes";
          "wal.append_bytes"; "wal.flush_bytes"; "exec.restarts"; "exec.steps";
          "lock.blocks"; "repl.ships"; "repl.ship_bytes"; "repl.msgs" ]
      || String.starts_with ~prefix:"plan.rows." n)
    counters

(* --- one run ------------------------------------------------------------- *)

type config = {
  dir : string;  (** scratch directory the run owns *)
  seed : int;
  budget : budget;  (** of the measured loop; a traced run spends it twice *)
  traced : bool;
  setup_reps : int;  (** set-ups timed; [setup_s] is their median CPU time *)
  corpus : Corpus.sizes;
  items : int;  (** key space of the transaction workloads *)
  warm_batches : int;  (** batches run in set-up before the crash *)
  trace_file : string option;  (** where a traced run writes its Chrome trace *)
}

let default_config =
  {
    dir = ".perfbench/run";
    seed = 1;
    budget = Seconds 30.;
    traced = false;
    setup_reps = 5;
    corpus = Corpus.default_sizes;
    items = 2000;
    warm_batches = 80;
    trace_file = None;
  }

type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** untraced runs *)
  layer : metric list;  (** traced runs *)
  lines : string list;  (** human-readable detail *)
  fingerprint : (string * string) list;  (** what a rerun must reproduce *)
}

(* Set up [cfg.setup_reps] times, each in a fresh directory, releasing
   all but the last state; returns it with the median set-up cost, wall
   and CPU. *)
let repeated_setup cfg setup release =
  let costs = ref [] and last = ref None in
  for k = 1 to max 1 cfg.setup_reps do
    Option.iter
      (fun (s, dir) ->
        release s;
        rm_rf dir)
      !last;
    let dir = fresh_dir (Filename.concat cfg.dir (Printf.sprintf "setup%d" k)) in
    Gc.compact ();
    let s, cost = costed (fun () -> setup dir) in
    costs := cost :: !costs;
    last := Some (s, dir)
  done;
  let med f = median (List.map f !costs) in
  (fst (Option.get !last), { wall = med (fun c -> c.wall); cpu = med (fun c -> c.cpu) })

let write_trace cfg m =
  Option.iter (fun path -> write_file path (Obs.Trace.to_chrome m.trace)) cfg.trace_file

let fingerprint_of_counters d =
  List.map (fun (n, v) -> (n, string_of_int v)) (deterministic d)

(* The end-to-end metrics every workload reports, from its operations'
   costs ([ok] of them successful).  [p50 f] is the workload's p50 of the
   costs' field [f].  Each timing comes in CPU time and in wall-clock
   time; Suite.end_to_end names the ones the gate compares.  Throughput
   is per second spent inside operations. *)
let op_e2e ~setup ~space_amp ~ok ~p50 costs =
  let per_s field =
    1000. *. float_of_int ok /. List.fold_left (fun a c -> a +. field c) 0. costs
  in
  let p90 field = percentile (List.map field costs) 0.9 in
  let cpu c = c.cpu and wall c = c.wall in
  [
    metric "setup_s" "s" (setup.cpu /. 1000.);
    metric "ops_per_cpu_s" "1/s" (per_s cpu);
    metric "op_cpu_ms_p50" "ms" (p50 cpu);
    metric "op_cpu_ms_p90" "ms" (p90 cpu);
    metric "space_amp" "ratio" space_amp;
    metric "heap_mb_peak" "MB" (heap_mb_peak ());
    metric "setup_wall_s" "s" (setup.wall /. 1000.);
    metric "ops_per_s" "1/s" (per_s wall);
    metric "op_ms_p50" "ms" (p50 wall);
    metric "op_ms_p90" "ms" (p90 wall);
  ]

(* A run's outcome; untraced runs also get [failed_ratio]. *)
let outcome ~attempted ~failed ~e2e ~layer ~lines ~fingerprint =
  let e2e = if e2e = [] then [] else e2e @ [ metric "failed_ratio" "ratio" (ratio failed attempted) ] in
  { attempted; failed; e2e; layer; lines; fingerprint }
