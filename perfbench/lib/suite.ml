(* The benchmark's workloads by name.  BENCHMARK.json gates query-cold
   and repl-restart; the others run by hand (NOTES.md says why). *)

let workloads =
  [
    ("query-cold", Query_wl.run ~warm:false);
    ("query-warm", Query_wl.run ~warm:true);
    ("repl-restart", Txn_wl.run_restart);
    ("txn-commit", Txn_wl.run_commit);
    ("txn-replicated", Txn_wl.run_repl);
  ]

(* The end-to-end metrics every untraced run reports on its last line;
   the rest of its end-to-end metrics are printed for reading only. *)
let end_to_end = [ "setup_s"; "ops_per_cpu_s"; "op_cpu_ms_p50"; "space_amp"; "heap_mb_peak" ]
