(* Round-robin SS2PL executor over a backend (one engine, or a 2PC
   coordinator over shards); see the .mli for the policy discussion.
   The structure deliberately parallels Transactions.Simulation.run so
   the two drivers can be compared. *)

module Schedule = Transactions.Schedule

type backend = {
  begin_txn : unit -> int;
  read : string -> unit;
  write : txn:int -> string -> int -> unit;
  abort : txn:int -> unit;
  commit : txn:int -> [ `Committed | `Aborted ];
  stranded : int -> bool;
  round : unit -> unit;
  crash : unit -> unit;
  degraded : unit -> bool;
  fault : Fault.t;
  metrics : Obs.Registry.t;
  trace : Obs.Trace.t;
}

let engine_backend eng =
  {
    begin_txn = (fun () -> Engine.begin_txn eng);
    read = (fun item -> ignore (Engine.read eng item : int));
    write = (fun ~txn item v -> Engine.write eng ~txn item v);
    abort = (fun ~txn -> Engine.abort eng ~txn);
    commit = (fun ~txn -> Engine.commit eng ~txn; `Committed);
    stranded = (fun _ -> false);
    round = ignore;
    crash = (fun () -> Engine.crash eng);
    degraded = (fun () -> Engine.read_only eng);
    fault = Engine.fault eng;
    metrics = Engine.metrics eng;
    trace = Engine.trace eng;
  }

type config = {
  max_steps : int;
  max_backoff : int;
  lock_timeout : int option;
  seed : int;
}

let default_config =
  { max_steps = 200_000; max_backoff = 64; lock_timeout = None; seed = 0 }

type stats = {
  committed : int;
  restarts : int;
  deadlocks : int;
  timeouts : int;
  commit_aborts : int;
  steps : int;
  wasted_ops : int;
  degraded : bool;
  crashed : Fault.crash_info option;
}

let throughput stats =
  if stats.steps = 0 then 0.
  else float_of_int stats.committed /. float_of_int stats.steps

(* Simulation.break_deadlock keeps the highest incarnation (ties to the
   lowest base); the victim of a pair is whichever would not survive.
   (incarnation desc, base asc) is a total order, so folding this
   pairwise choice over a cycle picks the same victim Simulation's
   survivor scan implies. *)
let victim_pref ~age a b =
  let ia, ba = age a and ib, bb = age b in
  if ia > ib || (ia = ib && ba < bb) then b else a

type slot = {
  base : int;
  program : Schedule.action array;
  mutable txn : int option;  (* backend transaction id, fresh per incarnation *)
  mutable incarnation : int;
  mutable pc : int;
  mutable finished : bool;
  mutable delay : int;  (* rounds to sit out after a restart (backoff) *)
  mutable started_ns : int;  (* incarnation start, for the txn trace event *)
}

let run_on ?(config = default_config) (b : backend) specs =
  let rng = Support.Rng.create config.seed in
  let metrics = b.metrics and trace = b.trace in
  let counter = Obs.Registry.counter metrics in
  let m_steps =
    counter ~unit:"attempts" ~help:"operation attempts (scheduler steps)"
      "exec.steps"
  in
  let m_restarts =
    counter ~unit:"restarts"
      ~help:"victim aborts (deadlock + timeout) and 2PC decided aborts"
      "exec.restarts"
  in
  let m_deadlocks =
    counter ~unit:"restarts" ~help:"restarts caused by waits-for cycles"
      "exec.deadlocks"
  in
  let m_timeouts =
    counter ~unit:"restarts" ~help:"restarts caused by lock-wait timeout"
      "exec.timeouts"
  in
  let m_wasted =
    counter ~unit:"ops" ~help:"operations re-executed after restarts"
      "exec.wasted_ops"
  in
  let m_backoff =
    Obs.Registry.histogram metrics ~unit:"rounds"
      ~help:"backoff drawn per restart" "exec.backoff_rounds"
  in
  let emit_txn slot id ~outcome =
    let now = Obs.Trace.now trace in
    Obs.Trace.emit trace ~tid:(slot.base + 1)
      ~args:
        [
          ("txn", string_of_int id);
          ("incarnation", string_of_int slot.incarnation);
          ("outcome", outcome);
        ]
      ~name:"exec.txn" ~start_ns:slot.started_ns
      ~dur_ns:(now - slot.started_ns) ()
  in
  let slots =
    Array.mapi
      (fun i spec ->
        {
          base = i;
          program = Array.of_list spec;
          txn = None;
          incarnation = 0;
          pc = 0;
          finished = false;
          delay = 0;
          started_ns = 0;
        })
      specs
  in
  let by_txn = Hashtbl.create 16 in
  let age txn =
    match Hashtbl.find_opt by_txn txn with
    | Some s -> (s.incarnation, s.base)
    | None -> (0, txn)
  in
  let lm =
    Lock_manager.create ?timeout:config.lock_timeout
      ~victim_pref:(victim_pref ~age) ~metrics ()
  in
  let steps = ref 0 in
  let restarts = ref 0 in
  let deadlocks = ref 0 in
  let timeouts = ref 0 in
  let commit_aborts = ref 0 in
  let wasted = ref 0 in
  let committed = ref 0 in
  let stopped = ref false in
  (* unique written values make the log's committed projection sharp *)
  let next_value = ref 0 in
  (* finished txns whose decision is stranded keep their locks until
     every participant has the decision *)
  let deferred = ref [] in
  let ensure_started slot =
    match slot.txn with
    | Some id -> id
    | None ->
        let id = b.begin_txn () in
        slot.txn <- Some id;
        slot.started_ns <- Obs.Trace.now trace;
        Hashtbl.replace by_txn id slot;
        id
  in
  let retire slot id =
    if b.stranded id then deferred := id :: !deferred
    else Lock_manager.release_all lm ~txn:id;
    Hashtbl.remove by_txn id;
    slot.txn <- None
  in
  (* count a restart, then back off: bounded exponential backoff +
     seeded jitter, as Simulation does *)
  let backoff slot count =
    incr restarts;
    Obs.Registry.Counter.incr m_restarts;
    incr count;
    wasted := !wasted + slot.pc;
    Obs.Registry.Counter.add m_wasted slot.pc;
    slot.pc <- 0;
    slot.incarnation <- slot.incarnation + 1;
    let window = min config.max_backoff (1 lsl min 6 slot.incarnation) in
    slot.delay <- 1 + Support.Rng.int rng window;
    Obs.Histogram.observe m_backoff slot.delay
  in
  (* a victim's cause: its trace outcome, counter and metric *)
  let deadlock = ("deadlock", deadlocks, m_deadlocks)
  and timeout = ("timeout", timeouts, m_timeouts) in
  let restart slot (outcome, count, metric) =
    (match slot.txn with
    | Some id ->
        emit_txn slot id ~outcome;
        b.abort ~txn:id;
        retire slot id
    | None -> ());
    Obs.Registry.Counter.incr metric;
    backoff slot count
  in
  let restart_txn victim why =
    match Hashtbl.find_opt by_txn victim with
    | Some slot -> restart slot why
    | None -> ()  (* already gone (raced with its own restart) *)
  in
  let commit_slot slot id =
    match b.commit ~txn:id with
    | `Committed ->
        emit_txn slot id ~outcome:"commit";
        retire slot id;
        slot.finished <- true;
        incr committed
    | `Aborted ->
        (* a decided abort: the work is undone (or stranded pending an
           undo); retry the whole program after backoff *)
        emit_txn slot id ~outcome:"commit-abort";
        retire slot id;
        backoff slot commit_aborts
  in
  let attempt slot =
    incr steps;
    Obs.Registry.Counter.incr m_steps;
    let id = ensure_started slot in
    if slot.pc >= Array.length slot.program then commit_slot slot id
    else
      match slot.program.(slot.pc) with
      | Schedule.Commit -> commit_slot slot id
      | Schedule.Abort ->
          emit_txn slot id ~outcome:"abort";
          b.abort ~txn:id;
          retire slot id;
          slot.finished <- true
      | (Schedule.Read item | Schedule.Write item) as op -> (
          let mode =
            match op with
            | Schedule.Read _ -> Lock_manager.Shared
            | _ -> Lock_manager.Exclusive
          in
          match Lock_manager.acquire lm ~txn:id ~item mode with
          | Lock_manager.Granted -> (
              match
                match op with
                | Schedule.Read _ -> b.read item
                | _ ->
                    incr next_value;
                    b.write ~txn:id item !next_value
              with
              | () -> slot.pc <- slot.pc + 1
              | exception Engine.Locked _ ->
                  (* held below the lock manager by a stranded txn:
                     push its decision along and retry next turn *)
                  b.round ())
          | Lock_manager.Blocked -> ()
          | Lock_manager.Deadlock { victim; _ } -> restart_txn victim deadlock)
  in
  let end_of_round () =
    b.round ();
    let landed, still =
      List.partition (fun txn -> not (b.stranded txn)) !deferred
    in
    List.iter (fun txn -> Lock_manager.release_all lm ~txn) landed;
    deferred := still
  in
  let all_done () = Array.for_all (fun s -> s.finished) slots in
  (try
     while (not (all_done ())) && (not !stopped) && !steps < config.max_steps do
       Array.iter
         (fun slot ->
           if (not slot.finished) && not !stopped then
             if slot.delay > 0 then slot.delay <- slot.delay - 1
             else
               try attempt slot
               with Engine.Read_only _ ->
                 (* in doubt: leave the transaction active; restart
                    recovery will settle it.  Nothing more can commit —
                    stop the run. *)
                 stopped := true)
         slots;
       if not !stopped then begin
         end_of_round ();
         List.iter (fun t -> restart_txn t timeout) (Lock_manager.tick lm)
       end
     done;
     (* give undelivered decisions a final chance before the run ends *)
     if not !stopped then end_of_round ()
   with Fault.Crash _ -> b.crash ());
  {
    committed = !committed;
    restarts = !restarts;
    deadlocks = !deadlocks;
    timeouts = !timeouts;
    commit_aborts = !commit_aborts;
    steps = !steps;
    wasted_ops = !wasted;
    degraded = b.degraded ();
    crashed = Fault.crashed_at b.fault;
  }

let run ?config eng specs = run_on ?config (engine_backend eng) specs

let model_divergence ~path =
  let entries = Wal.read_entries (Engine.wal_path path) in
  let model_log =
    Wal.to_model (List.map (fun e -> e.Wal.record) entries)
  in
  let expected =
    Transactions.Recovery.committed_state model_log
    |> List.filter (fun (_, v) -> v <> 0)
    |> List.sort compare
  in
  let eng = Engine.open_db path in
  let actual = Engine.items eng in
  Engine.close eng;
  if expected = actual then None else Some (expected, actual)
