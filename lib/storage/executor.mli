(** The fault-tolerant concurrent transaction executor: runs interleaved
    {!Transactions.Workload} programs under SS2PL — shared locks for
    reads, exclusive for writes, all held to commit/abort via
    {!Lock_manager} — against a {!backend}: one {!Engine}
    ({!engine_backend}) or a 2PC coordinator over shards
    ([Distributed.Coordinator.backend]).

    The driver is the same single-threaded round-robin scheduler as
    {!Transactions.Simulation}: each live transaction attempts one step
    per round, blocked transactions re-issue their lock request, and
    victims (deadlock, lock-wait timeout, or a commit that came back
    decided-aborted) restart under a fresh backend transaction id with
    bounded exponential backoff plus seeded jitter — one RNG draw per
    restart.  The victim policy mirrors [Simulation.break_deadlock]:
    keep the transaction with the most restarts behind it (highest
    incarnation, ties to the lowest program index) — {!victim_pref} is
    the pure pairwise form, cross-checked against the simulation.

    Each round ends with the backend's [round] hook, then the release
    of locks held by transactions whose decision is no longer
    [stranded], then {!Lock_manager.tick}; the run ends with one more
    hook call and release.

    Faults: an injected crash ({!Fault.Crash}) abandons the backend and
    is reported in the stats; a backend that degrades to read-only
    ({!Engine.Read_only}) stops the run with unresolved transactions in
    doubt (restart recovery settles them); CRC-corrupt pages are
    repaired inside the engine unseen (beyond {!Engine.repairs}). *)

(** What the scheduler drives.  It takes every lock before it calls
    [read] or [write]. *)
type backend = {
  begin_txn : unit -> int;  (** start a transaction, fresh id *)
  read : string -> unit;  (** read an item (the value is not used) *)
  write : txn:int -> string -> int -> unit;
      (** write an item; {!Engine.Locked} means a lock below the
          scheduler's (a stranded transaction's): the scheduler runs
          [round] and retries the step on its next turn *)
  abort : txn:int -> unit;  (** roll back a victim or voluntary abort *)
  commit : txn:int -> [ `Committed | `Aborted ];
      (** make the transaction durable, or report a decided abort *)
  stranded : int -> bool;
      (** is this finished transaction's decision still undelivered
          somewhere?  Its locks stay held until it is not. *)
  round : unit -> unit;  (** per-round hook (2PC re-delivery) *)
  crash : unit -> unit;  (** abandon everything without flushing *)
  degraded : unit -> bool;  (** has the backend gone read-only? *)
  fault : Fault.t;  (** the injector whose crash the stats report *)
  metrics : Obs.Registry.t;  (** gets the [exec.*] and [lock.*] instruments *)
  trace : Obs.Trace.t;  (** gets the [exec.txn] events *)
}

val engine_backend : Engine.t -> backend
(** One engine: commits never decide abort, nothing strands, and the
    round hook does nothing. *)

(** Scheduler knobs; see {!default_config}. *)
type config = {
  max_steps : int;  (** livelock bound on total operation attempts *)
  max_backoff : int;  (** cap on the backoff window, in rounds *)
  lock_timeout : int option;
      (** lock-wait timeout in scheduler rounds (one {!Lock_manager.tick}
          per round), if any *)
  seed : int;  (** jitter RNG seed *)
}

val default_config : config
(** max_steps 200_000, max_backoff 64, lock_timeout None, seed 0. *)

type stats = {
  committed : int;
  restarts : int;  (** victim aborts (deadlock + timeout) + decided aborts *)
  deadlocks : int;  (** restarts caused by waits-for cycles *)
  timeouts : int;  (** restarts caused by lock-wait timeout *)
  commit_aborts : int;  (** restarts caused by a decided abort at commit *)
  steps : int;  (** operation attempts, a proxy for time *)
  wasted_ops : int;  (** operations re-executed after restarts *)
  degraded : bool;  (** the backend went read-only under the run *)
  crashed : Fault.crash_info option;  (** an injected crash fired *)
}

val run_on : ?config:config -> backend -> Transactions.Simulation.spec array -> stats
(** Execute the programs to completion (or crash/degradation/step
    bound).  Written values are drawn from a per-run counter so every
    write is distinguishable in the log — which is what makes the
    model-divergence checks sharp.  On {!Fault.Crash} the backend is
    abandoned ({!backend.crash}) before returning.

    Observability rides on the backend's registry and recorder: the run
    registers the [exec.*] instruments (steps, restarts by cause, wasted
    ops, the [exec.backoff_rounds] histogram), passes the registry to
    its {!Lock_manager} (the [lock.*] instruments), and emits one
    [exec.txn] trace event per transaction incarnation — lane
    [1 + slot index], annotated with the backend txn id, incarnation,
    and outcome. *)

val run : ?config:config -> Engine.t -> Transactions.Simulation.spec array -> stats
(** [run eng] is [run_on (engine_backend eng)]. *)

val throughput : stats -> float
(** committed / steps. *)

val victim_pref :
  age:(int -> int * int) -> int -> int -> int
(** [victim_pref ~age a b] is the transaction to abort, where [age txn]
    gives (incarnation, program index).  Mirrors
    [Simulation.break_deadlock]'s survivor choice: the higher
    incarnation survives, ties broken towards the lower index. *)

val model_divergence : path:string -> ((string * int) list * (string * int) list) option
(** Reopen the database at [path] (running recovery/repair) and compare
    its committed items against {!Transactions.Recovery.committed_state}
    of the surviving log's model image: [None] when they agree,
    [Some (expected, actual)] otherwise.  The engine must be closed. *)
