(** Static analysis of physical query plans ([dbmeta lint plan]).

    Diagnostic codes:
    - [PL001] (warning) full scan despite a usable index — a sequential
      scan of a table while an enclosing filter holds a sargable
      conjunct (attribute compared to a constant) that an existing index
      on that table could serve
    - [PL002] (error) cartesian product — a join whose sides share no
      attribute, so every pair of rows is combined
    - [PL003] (warning) estimate divergence — after execution, a node's
      estimated cardinality is more than 8x off its actual row count;
      the message says "statistics are stale" only when a full scan
      under the node produced a row count other than its table's
      statistics row count, and "estimate model error
      (selectivity/uniformity)" otherwise; unexecuted nodes are skipped
    - [PL004] (info) unused projected columns — a non-root projection
      keeps columns no ancestor operator consumes

    The plan is produced by [Planner.Plan.plan] (and, for PL003,
    executed by [Planner.Exec.run] first so the actual row counts are
    filled in). *)

type input = {
  plan : Planner.Physical.t;
  indexes : Planner.Indexes.def list;
  stats : Planner.Stats.t;
}
(** What the passes see: the physical plan, the index definitions the
    planner had available (PL001 must know what was on offer, not what
    was chosen), and the statistics it planned with (PL003 compares
    them with what the scans produced). *)

val passes : input Pass.t list
(** The PL pass suite, for {!Pass.run_all} / {!Pass.drive}. *)

val lint : input -> Diagnostic.t list
(** Runs every pass and returns the sorted diagnostics. *)
