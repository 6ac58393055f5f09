(* Measurement plumbing shared by the workloads: spans kept in memory
   and written out as Chrome trace-event JSON, differencing of the
   telemetry registry across the measured window, percentiles, process
   readings from /proc, the host-speed probe, and the result object the
   runner parses. *)

module Clock = Telemetry.Clock
module M = Telemetry.Metrics

(* {1 Spans}

   Spans go into a private Telemetry.Trace ring, so recording one
   allocates nothing. Its 2^20 slots hold about 80 s of steady-churn, the
   workload with the most spans (300 finishes a round); a wrapped ring
   fails the run rather than under-count. *)

module Trace = Telemetry.Trace

let ring = Trace.create ~capacity:(1 lsl 20) ()

(* Off in untimed set-up and in the untraced windows. *)
let tracing = ref false

let phase name = Trace.register ring name

(* [span_open ()] is the span's start, or -1 when tracing is off. *)
let span_open () = if !tracing then Clock.now_ns () else -1
let span_close phase t0 = if t0 >= 0 then Trace.span_end ring ~phase ~t0

let check_ring () =
  if Trace.recorded ring > Trace.capacity ring then failwith "span ring wrapped; shorten the window"

(* Total duration (ns) and count of the spans of [phase]. *)
let span_total phase =
  check_ring ();
  let total = ref 0 and count = ref 0 in
  Trace.iter_recent ring (fun ~phase:p ~round:_ ~t0 ~t1 ->
      if p = phase then begin
        total := !total + (t1 - t0);
        incr count
      end);
  (!total, !count)

(* Chrome trace-event JSON, each span tagged with its round. *)
let write_chrome_trace path =
  check_ring ();
  let oc = open_out path in
  let first = ref true and base = ref max_int in
  Trace.iter_recent ring (fun ~phase:_ ~round:_ ~t0 ~t1:_ -> base := min !base t0);
  output_string oc "{\"traceEvents\":[";
  Trace.iter_recent ring (fun ~phase ~round ~t0 ~t1 ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"round\":%d}}"
        (if !first then "" else ",")
        (Trace.phase_name ring phase)
        (float_of_int (t0 - !base) /. 1e3)
        (float_of_int (t1 - t0) /. 1e3)
        round;
      first := false);
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

(* {1 Registry differencing}

   The registry is process-global and cumulative, so the set-up's cold
   solve would dominate every mean. A snapshot maps each metric name to
   its value (counters, gauges) or its (count, sum) (histograms); the
   window's numbers are the difference of two snapshots. *)

type reading = Scalar of float | Hist of float * float

type snapshot = (string, reading) Hashtbl.t

let snapshot () : snapshot =
  let h = Hashtbl.create 128 in
  List.iter
    (fun (v : M.view) ->
      let r =
        match v.kind with
        | M.Counter | M.Gauge -> Scalar (float_of_int v.data.(0))
        | M.Histogram ->
            Hist (float_of_int v.data.(v.buckets), float_of_int v.data.(v.buckets + 1))
      in
      Hashtbl.replace h v.name r)
    (M.views (M.global ()));
  h

(* A snapshot parsed from Prometheus text exposition (the daemon's scrape
   endpoint): [name v] lines are scalars, [name_count]/[name_sum] pairs
   are histograms, bucket lines are skipped. *)
let snapshot_of_prometheus text : snapshot =
  let scalars = Hashtbl.create 128 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
        match String.split_on_char ' ' line with
        | [ name; v ] -> (
            match float_of_string_opt v with
            | Some f -> Hashtbl.replace scalars name f
            | None -> ())
        | _ -> ())
    (String.split_on_char '\n' text);
  let h = Hashtbl.create 128 in
  let strip suffix name =
    let ls = String.length suffix and ln = String.length name in
    if ln > ls && String.sub name (ln - ls) ls = suffix then Some (String.sub name 0 (ln - ls))
    else None
  in
  Hashtbl.iter
    (fun name v ->
      match strip "_count" name with
      | Some base when Hashtbl.mem scalars (base ^ "_sum") ->
          Hashtbl.replace h base (Hist (v, Hashtbl.find scalars (base ^ "_sum")))
      | _ -> (
          match strip "_sum" name with
          | Some base when Hashtbl.mem scalars (base ^ "_count") -> ()
          | _ -> Hashtbl.replace h name (Scalar v)))
    scalars;
  h

(* Window deltas. A metric missing from both snapshots reads 0. *)
let delta (a : snapshot) (b : snapshot) name =
  let get s = match Hashtbl.find_opt s name with Some (Scalar v) -> v | _ -> 0. in
  get b -. get a

let hist_delta (a : snapshot) (b : snapshot) name =
  let get s = match Hashtbl.find_opt s name with Some (Hist (c, x)) -> (c, x) | _ -> (0., 0.) in
  let c0, s0 = get a and c1, s1 = get b in
  (c1 -. c0, s1 -. s0)

(* Mean of a histogram over the window, scaled ([1e-6] turns ns into ms);
   0 when nothing was observed. *)
let hist_mean ?(scale = 1.) a b name =
  let c, s = hist_delta a b name in
  if c > 0. then s /. c *. scale else 0.

(* Sum of a histogram over the window, scaled. *)
let hist_sum ?(scale = 1.) a b name = snd (hist_delta a b name) *. scale

(* The scheduler and solver layers, from registry deltas over a window:
   the same metrics in this process and, through its scrape endpoint, in
   the daemon. Phases are means per committed round; [phase.other_ms] is
   the adopt and prepare phases. *)
let solver_layers a b =
  let d = delta a b and ms = hist_mean ~scale:1e-6 a b in
  let rounds = Float.max 1. (d "sched_rounds_total") in
  let phase p = hist_sum ~scale:1e-6 a b ("sched_phase_" ^ p ^ "_ns") /. rounds in
  let giveups =
    List.fold_left
      (fun acc r -> acc +. d ("mcmf_incremental_giveup_" ^ r ^ "_total"))
      0. [ "oversized"; "no_path"; "not_certified"; "stopped" ]
  in
  let repairs = d "mcmf_incremental_repairs_total" in
  let attempts = repairs +. giveups in
  [
    ("phase.refresh_ms", phase "refresh");
    ("phase.solve_ms", phase "solve");
    ("phase.solve_win_ms", phase "solve_win");
    ("phase.solve_wait_ms", phase "solve_wait");
    ("phase.extract_ms", phase "extract");
    ("phase.apply_ms", phase "apply");
    ("phase.other_ms", phase "adopt" +. phase "prepare");
    ("race.repair_wins", d "mcmf_race_wins_repair_total");
    ("race.relaxation_wins", d "mcmf_race_wins_relaxation_total");
    ("race.cost_scaling_wins", d "mcmf_race_wins_cost_scaling_total");
    ("race.winner_only_rounds", d "mcmf_race_winner_only_total");
    ("repair.attempts", attempts);
    ("repair.giveups", giveups);
    ("repair.success_ratio", if attempts > 0. then repairs /. attempts else 0.);
    ("repair.touched_mean", hist_mean a b "mcmf_incremental_repair_touched");
    ("repair.ms", ms "mcmf_incremental_repair_ns");
    ("relaxation.ms", ms "mcmf_race_relaxation_ns");
    ("cost_scaling.ms", ms "mcmf_race_cost_scaling_ns");
  ]

(* Per-layer metrics of layers a workload does not exercise read 0. *)
let not_exercised names = List.map (fun n -> (n, 0.)) names

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* {1 Samples}

   Latency samples with the time each was taken. The reported percentile
   is taken per second of the window and averaged over its seconds. A
   percentile of the whole window, or the median of the seconds, jumps
   when the window holds two kinds of second: on steady-churn, spells of
   seconds read a p50 near 15 ms and others near 25 ms, and which kind was
   the majority flipped the median between runs. The mean moves only in
   proportion to the share of each kind; over ten runs on a 2-vCPU Xeon
   virtual machine its spread was 0.125 of the median against 0.21 for
   the median of the seconds. *)

type samples = { mutable len : int; mutable v : float array; mutable t : int array }

let samples () = { len = 0; v = Array.make 4096 0.; t = Array.make 4096 0 }

let add s ~t v =
  if s.len = Array.length s.v then begin
    let grow a z =
      let b = Array.make (2 * s.len) z in
      Array.blit a 0 b 0 s.len;
      b
    in
    s.v <- grow s.v 0.;
    s.t <- grow s.t 0
  end;
  s.v.(s.len) <- v;
  s.t.(s.len) <- t;
  s.len <- s.len + 1

(* Nearest-rank percentile of a sorted array, [q] in (0, 1]. *)
let rank a q =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* The [q] percentile of each whole second after [t0], in time order,
   of the samples each multiplied by [scale] of its time. Seconds
   holding under a tenth of the mean per-second count, such as a
   trailing fragment, are skipped. *)
let by_second ?(scale = fun _ -> 1.) s ~t0 q =
  let buckets = Hashtbl.create 64 in
  for i = 0 to s.len - 1 do
    let b = (s.t.(i) - t0) / 1_000_000_000 in
    let v = s.v.(i) *. scale s.t.(i) in
    Hashtbl.replace buckets b (v :: Option.value ~default:[] (Hashtbl.find_opt buckets b))
  done;
  let n = Hashtbl.length buckets in
  let floor = if n = 0 then 0 else s.len / n / 10 in
  Hashtbl.fold (fun b l acc -> if List.length l <= floor then acc else (b, l) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (_, l) ->
         let a = Array.of_list l in
         Array.sort compare a;
         rank a q)

let percentile ?scale s ~t0 q =
  match by_second ?scale s ~t0 q with
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* The sum of the samples, each multiplied by [scale] of its time. *)
let scaled_sum ?(scale = fun _ -> 1.) s =
  let sum = ref 0. in
  for i = 0 to s.len - 1 do
    sum := !sum +. (s.v.(i) *. scale s.t.(i))
  done;
  !sum

(* {1 Process readings} *)

(* /proc files report length 0, so read them by chunks. *)
let read_proc path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents b)

(* Peak resident set (VmHWM) of [pid] in MB. *)
let peak_rss_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%s/status" pid) in
  let kb =
    List.find_map
      (fun line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Option.some
        else None)
      (String.split_on_char '\n' status)
  in
  match kb with Some kb -> float_of_int kb /. 1024. | None -> nan

(* User + system CPU seconds of [pid], from /proc/<pid>/stat fields 14
   and 15 (after the parenthesised command name). *)
let cpu_s pid =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* [rest] starts at field 3 (state). *)
  let utime = float_of_string fields.(11) and stime = float_of_string fields.(12) in
  (utime +. stime) /. 100.

(* Host-wide (steal, total) jiffies from the first line of /proc/stat:
   time the hypervisor ran something else while this machine's CPUs had
   work, which stretches every wall-clock number of a run. *)
let host_jiffies () =
  let line = List.hd (String.split_on_char '\n' (read_proc "/proc/stat")) in
  let fields =
    List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' line))
  in
  (List.nth fields 7, List.fold_left ( + ) 0 fields)

(* Steal as a share of all CPU time between two readings, in %. *)
let steal_pct (s0, t0) (s1, t1) = 100. *. float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0))

(* Steal per second of a window, read by [tick] from the window's loop. *)
type steal_log = { mutable next : int; mutable last : int * int; mutable pct : float list }

let steal_log () = { next = Clock.now_ns () + 1_000_000_000; last = host_jiffies (); pct = [] }

let tick l =
  if Clock.now_ns () >= l.next then begin
    let j = host_jiffies () in
    l.pct <- steal_pct l.last j :: l.pct;
    l.last <- j;
    l.next <- l.next + 1_000_000_000
  end

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* {1 Host speed}

   The benchmark runs on a virtual CPU of a shared host, and the host runs
   it at a speed that drifts by up to a factor of two over seconds and
   minutes. On a 2-vCPU Xeon virtual machine a pinned Python loop varied
   by 17 % (standard deviation over mean) second by second, on either
   vCPU and independently of the other. Scheduler rounds follow that
   drift: over 30 s windows their per-second p50 ranged from 13 to 28 ms
   on steady-churn, and the raw p50 of ten runs spread by 0.39 of its
   median (0.25 on small-delta).

   The probe is a fixed piece of the benchmark's own work, 20,000 lookups
   and updates of a 4,096-entry hash table (about 1.5 ms), run between
   rounds every [probe_period_ns]. Its time tracks the host: per second
   of a steady-churn window it correlated 0.97 with the round time,
   against 0.88 for a 4 MB random walk and 0.30 for an integer loop. The
   workloads report their timings at a reference host speed:
   each is scaled by [probe_ref_ms] over the mean probe time of its
   [scale_slot_ns] slot. That took the spread of the same ten runs' p50
   to 0.13 on steady-churn and 0.05 on small-delta. Rounds slow somewhat
   more than the probe (per second, log-log slopes of 0.9 to 1.3), so
   part of the drift stays. The probe shares no code or data with the
   scheduler, so a change to the scheduler moves the scaled numbers as
   it moves the raw ones. *)

let probe_ref_ms = 1.5
let probe_period_ns = 40_000_000

let probe_table : (int, int) Hashtbl.t = Hashtbl.create 4096
let () = for k = 0 to 4095 do Hashtbl.replace probe_table k 0 done

let self_cpu_ns () = int_of_float (self_cpu_s () *. 1e9)

(* Milliseconds the probe took: wall time, or with [~cpu] this process's
   CPU time, which leaves out any other process that ran on the CPU
   meanwhile. It allocates nothing, so it never runs the collector on
   the scheduler's heap, and its time cannot depend on the program. *)
let probe_ms ?(cpu = false) () =
  let clock = if cpu then self_cpu_ns else Clock.now_ns in
  let t0 = clock () in
  for i = 1 to 20_000 do
    let k = (i * 7919) land 4095 in
    Hashtbl.replace probe_table k (Hashtbl.find probe_table k + 1)
  done;
  float_of_int (clock () - t0) /. 1e6

(* Probe times of a window, each at the time it was taken. *)
type host = { probes : samples; mutable next : int; cpu : bool }

(* Probing starts at [from] (ns). *)
let host ?(cpu = false) ?(from = 0) () = { probes = samples (); next = from; cpu }

(* Between rounds: run the probe if it is due. *)
let host_tick h =
  let t = Clock.now_ns () in
  if t >= h.next then begin
    add h.probes ~t (probe_ms ~cpu:h.cpu ());
    h.next <- Clock.now_ns () + probe_period_ns
  end

let probe_sum_ms h = scaled_sum h.probes

let probe_mean_ms h = probe_sum_ms h /. float_of_int (max 1 h.probes.len)

(* Multiply a time by this to bring it to the reference host speed. *)
let scale_of_probe_ms ms = probe_ref_ms /. ms

(* The scale at each time, from the probes of its [scale_slot_ns] slot.
   The speed drifts within a second, and a time is scaled by the speed of
   the slot it was taken in. A slot without a probe takes the window's
   mean. *)
let scale_slot_ns = 200_000_000

let host_scale h =
  let by = Hashtbl.create 256 in
  for i = 0 to h.probes.len - 1 do
    let b = h.probes.t.(i) / scale_slot_ns in
    let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt by b) in
    Hashtbl.replace by b (s +. h.probes.v.(i), n + 1)
  done;
  let mean = probe_mean_ms h in
  fun t ->
    match Hashtbl.find_opt by (t / scale_slot_ns) with
    | Some (s, n) -> scale_of_probe_ms (s /. float_of_int n)
    | None -> scale_of_probe_ms mean

(* The probe's time right now: the mean of eight in a row. *)
let spot_probe_ms ?cpu () =
  let s = ref 0. in
  for _ = 1 to 8 do
    s := !s +. probe_ms ?cpu ()
  done;
  !s /. 8.

(* {1 Result} *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  diag : (string * string) list;  (** values are JSON fragments *)
}

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

(* A short JSON list, for per-second diagnostics. *)
let json_list l = "[" ^ String.concat "," (List.map (Printf.sprintf "%.2f") l) ^ "]"


let print_result r =
  let fields l = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) l) in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s},\"diag\":{%s}}\n%!"
    r.correct r.attempted r.failed
    (fields (List.map (fun (k, v) -> (k, json_float v)) r.metrics))
    (fields r.diag)
