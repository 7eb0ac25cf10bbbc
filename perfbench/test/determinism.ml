(* Determinism of the benchmark's workloads.  Two runs of a workload
   with the same seed and the same operation count must produce the same
   work counters (pager reads and writes, WAL appends, flushes and bytes,
   plan.rows.*, executor restarts, net ticks) and the same outputs, and
   every output must pass its oracle; a different seed must give a
   different corpus.  Sizes are small so the test runs in seconds. *)

open Perfbench
open Common

let sizes = { Corpus.papers = 600; authors = 300; venues = 10; per_kind = 2 }

let config dir seed =
  {
    default_config with
    dir;
    seed;
    budget = Ops 3;
    traced = true;
    setup_reps = 1;
    corpus = sizes;
    items = 100;
    warm_batches = 3;
  }

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "FAIL %s\n" msg
      end)
    fmt

let run name f k =
  let dir = fresh_dir (Filename.concat "determinism-scratch" (Printf.sprintf "%s-%d" name k)) in
  let o = Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (config dir 7)) in
  check (o.failed = 0) "%s run %d: %d of %d operations failed" name k o.failed o.attempted;
  o.fingerprint

let () =
  List.iter
    (fun (name, f) ->
      let a = run name f 1 and b = run name f 2 in
      check (a <> []) "%s: empty fingerprint" name;
      List.iter
        (fun (key, v) ->
          let w = Option.value ~default:"(absent)" (List.assoc_opt key b) in
          check (v = w) "%s: %s differs between runs: %s vs %s" name key v w)
        a;
      check (List.length a = List.length b) "%s: fingerprints list different counters" name;
      Printf.printf "%s: %d values reproduced\n" name (List.length a))
    Suite.workloads;
  let digest seed = Corpus.digest (Corpus.generate ~sizes seed) in
  check (digest 7 = digest 7) "corpus digest differs for the same seed";
  check (digest 7 <> digest 8) "corpus digest equal for different seeds";
  rm_rf "determinism-scratch";
  if !failures > 0 then exit 1
