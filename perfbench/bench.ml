(* The benchmark's command line: run one workload under a seed, print
   its metrics by name and unit, and end with one JSON line:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   Untraced runs (--trace 0) report the end-to-end metrics; traced runs
   (--trace 1) the per-layer metrics, the self-time split and a Chrome
   trace under .perfbench/.  Scratch files live under .perfbench/ in the
   current directory and are removed on exit. *)

open Perfbench
open Common

(* The benchmark's fifteen named end-to-end metrics, printed for every
   workload ("n/a" where the workload has none), before the rest. *)
let named =
  [ "setup_s"; "queries_per_s"; "query_ms_p90"; "point_ms_p50"; "range_ms_p50";
    "join2_ms_p50"; "join3_ms_p50"; "commits_per_s"; "batch_ms_p50"; "batch_ms_p90";
    "recover_ms_p50"; "recover_ms_p90"; "failed_ratio"; "space_amp"; "heap_mb_peak" ]

let print_metric m = print_endline (metric_line m)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else invalid_arg "non-finite metric"

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit)
          metrics))

(* Run one workload and print its report, ending with its JSON line. *)
let report ~seed ~seconds ~traced (name, run) =
  let dir = Printf.sprintf ".perfbench/run-%s-%d" name (Unix.getpid ()) in
  let cfg =
    {
      default_config with
      dir;
      seed;
      traced;
      (* a traced run spends its seconds half untraced, half traced *)
      budget = Seconds (if traced then seconds /. 2. else seconds);
      trace_file =
        (if traced then Some (Printf.sprintf ".perfbench/trace-%s-seed%d.json" name seed) else None);
    }
  in
  let o = Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> mkdir_p dir; run cfg) in
  Printf.printf "%s seed %d, %.0f s, trace %b\n" name seed seconds traced;
  let metrics =
    if traced then begin
      print_endline "per-layer metrics (traced half):";
      let layer = Layers.complete o.layer in
      List.iter print_metric layer;
      List.iter print_endline o.lines;
      Option.iter (Printf.printf "chrome trace: %s\n") cfg.trace_file;
      layer
    end
    else begin
      print_endline "end-to-end metrics:";
      List.iter
        (fun name ->
          match List.find_opt (fun (m : metric) -> m.name = name) o.e2e with
          | Some m -> print_metric m
          | None -> Printf.printf "  %-40s %14s\n" name "n/a")
        named;
      List.iter (fun (m : metric) -> if not (List.mem m.name named) then print_metric m) o.e2e;
      List.map (fun name -> List.find (fun (m : metric) -> m.name = name) o.e2e) Suite.end_to_end
    end
  in
  Printf.printf "attempted %d, failed %d\n" o.attempted o.failed;
  print_endline (json_line ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let list () =
    List.iter (fun (name, _) -> print_endline name) Suite.workloads;
    exit 0
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " (List.map fst Suite.workloads));
      ("--list", Arg.Unit list, " print the workload names, one a line");
      ("--seed", Arg.Set_int seed, " corpus / workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload Suite.workloads with
  | Some run -> report ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) (!workload, run)
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
