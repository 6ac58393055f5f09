(* perfbench: one measured run of one workload.

     perfbench.exe --workload steady-churn --seed 1 --seconds 10 --trace 0 \
       --out perfbench/_out --serve-exe _build/default/bin/firmament_serve.exe

   Prints one JSON object: correctness, operation counts, every metric of
   the run and its diagnostics. perfbench/run.py builds this program,
   runs it and keeps the metrics BENCHMARK.json names for the mode. *)

(* Process start, for the first set-up's time. *)
let t_start = Telemetry.Clock.now_ns ()

(* Workload sizes. The simulated cluster follows the paper's defaults (40
   machines per rack, 12 slots each, 50 % utilization); steady-churn's
   per-round change set stays above the repair gate (4 x the default
   budget of 512 graph changes), small-delta's stays far below it. The
   round rates are about what a 2-vCPU Xeon virtual machine runs. *)
let steady_churn =
  { Sim.machines = 1000; cluster_seed = 1; churn = 300; warmup_rounds = 12; rounds_per_s = 40. }

let small_delta =
  { Sim.machines = 1000; cluster_seed = 1; churn = 16; warmup_rounds = 12; rounds_per_s = 150. }

let serve_firehose =
  {
    Serve.machines = 1000;
    slots = 16;
    prefill_tasks = 8000;
    prefill_job = 100;
    prefill_seed = 1;
    rate = 500.;
    tasks_per_job = 8;
    task_s = 1.;
    warmup_s = 2.;
    linger_ms = 2.;
  }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref "perfbench/_out" in
  let serve_exe = ref "_build/default/bin/firmament_serve.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME steady-churn | small-delta | serve-firehose");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 record spans and report per-layer metrics");
      ("--out", Arg.Set_string out, "DIR scratch directory for traces, sockets and logs");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH firmament_serve binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [options]";
  let trace = !trace = 1 in
  let trace_out = Filename.concat !out (Printf.sprintf "trace-%s-%d.json" !workload !seed) in
  (* setup_s is the median of this many set-ups. *)
  let setup_reps = 3 in
  let result =
    match !workload with
    | "steady-churn" ->
        Sim.run steady_churn ~seed:!seed ~seconds:!seconds ~trace ~setup_reps ~trace_out ~t_start
    | "small-delta" ->
        Sim.run small_delta ~seed:!seed ~seconds:!seconds ~trace ~setup_reps ~trace_out ~t_start
    | "serve-firehose" ->
        Serve.run serve_firehose ~exe:!serve_exe ~out:!out ~seed:!seed ~seconds:!seconds ~trace
          ~setup_reps ~trace_out ~t_start
    | w ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
  in
  Ledger.print_result result
