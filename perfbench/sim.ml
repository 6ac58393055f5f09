(* The in-process workloads: a settled Quincy cluster driven through the
   public event and round API of Firmament.Scheduler (submit_job,
   finish_task, begin_round, commit_round), one synchronous round per
   step. Only those calls are timed; choosing which tasks finish and
   building the arriving job are the benchmark's own work and stay
   outside every timed span. *)

module S = Firmament.Scheduler
module W = Cluster.Workload
module Clock = Telemetry.Clock
module L = Ledger

type workload = {
  machines : int;
  cluster_seed : int;
      (** the standing cluster is a fixed fixture: its job mix is heavy
          tailed, and drawing it per run would make round cost depend on
          which large jobs the seed happened to produce *)
  churn : int;  (** tasks finished, and tasks submitted, per round *)
  warmup_rounds : int;
  rounds_per_s : float;
      (** the window is [seconds] times this many rounds, not [seconds] of
          wall time: the scheduler keeps every task it has seen, and its
          rounds slow as that history grows (on steady-churn the scaled
          p50 rose from 17.6 ms over the first 450 rounds to 22 ms by
          round 3,000), so a window of fixed time would run more rounds,
          and end in a slower state, on a faster host *)
}

(* {1 Input generator}

   Everything the benchmark feeds the scheduler after set-up comes from
   this stream, seeded by [--seed] alone: per round, [churn] raw picks
   (resolved against the running-task index when applied) and the
   arriving job's tasks (three input replicas and a bandwidth request
   each). *)
module Gen = struct
  type t = { rng : Random.State.t; machines : int }

  type step = { picks : int array; tasks : (int list * int) array }

  let make ~seed ~machines = { rng = Random.State.make [| seed; 0x5eed |]; machines }

  let step g ~churn =
    let picks = Array.init churn (fun _ -> Random.State.bits g.rng) in
    let tasks =
      Array.init churn (fun _ ->
          let replicas = List.init 3 (fun _ -> Random.State.int g.rng g.machines) in
          (replicas, 200 + Random.State.int g.rng 800))
    in
    { picks; tasks }

  (* Digest of the first [rounds] steps. *)
  let digest ~seed ~machines ~churn ~rounds =
    let g = make ~seed ~machines in
    let b = Buffer.create 4096 in
    for _ = 1 to rounds do
      let s = step g ~churn in
      Array.iter (fun p -> Buffer.add_string b (string_of_int p); Buffer.add_char b ',') s.picks;
      Array.iter
        (fun (r, d) ->
          List.iter (fun m -> Buffer.add_string b (string_of_int m); Buffer.add_char b ' ') r;
          Buffer.add_string b (string_of_int d);
          Buffer.add_char b ';')
        s.tasks
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))

  (* The same seed must give the same sequence, another seed another. *)
  let self_test ~seed ~machines ~churn =
    let d = digest ~seed ~machines ~churn ~rounds:20 in
    d = digest ~seed ~machines ~churn ~rounds:20
    && d <> digest ~seed:(seed + 1) ~machines ~churn ~rounds:20
end

(* {1 Running-task index}

   O(1) add, remove and uniform pick, so choosing which tasks finish costs
   the same at any cluster size. *)
module Index = struct
  type t = { mutable ids : int array; mutable n : int; pos : (int, int) Hashtbl.t }

  let create () = { ids = Array.make 1024 0; n = 0; pos = Hashtbl.create 4096 }

  let add t tid =
    if not (Hashtbl.mem t.pos tid) then begin
      if t.n = Array.length t.ids then begin
        let a = Array.make (2 * t.n) 0 in
        Array.blit t.ids 0 a 0 t.n;
        t.ids <- a
      end;
      t.ids.(t.n) <- tid;
      Hashtbl.replace t.pos tid t.n;
      t.n <- t.n + 1
    end

  let remove t tid =
    match Hashtbl.find_opt t.pos tid with
    | None -> ()
    | Some i ->
        let last = t.ids.(t.n - 1) in
        t.ids.(i) <- last;
        Hashtbl.replace t.pos last i;
        Hashtbl.remove t.pos tid;
        t.n <- t.n - 1

  (* Remove and return the task at slot [i]. *)
  let take t i =
    let tid = t.ids.(i) in
    remove t tid;
    tid
end

(* {1 Set-up} *)

(* The benchmark's jobs all hold [churn] tasks with consecutive ids from
   here, so a task's job, submit time and placed flag are found by
   arithmetic rather than by hashing. *)
let first_tid = 10_000_000

type state = {
  sched : S.t;
  cluster : Cluster.State.t;
  gen : Gen.t;
  churn : int;
  index : Index.t;
  mutable job_t_sub : int array;  (** submit_job time (ns) of each job sent *)
  mutable placed : Bytes.t;  (** per task sent: placed yet? *)
  mutable unplaced : int;
  mutable next_jid : int;
  mutable next_tid : int;
  mutable now : float;
  mutable degraded : int;
  mutable discards : int;
}

type setup_times = {
  trace_s : float;
  graph_s : float;
  cold_solve_s : float;
  total_s : float;
  scale : float;  (** host speed right after, see Ledger.host_scale *)
}

let setup (w : workload) ~seed ~t0 =
  let base = Cluster.Trace.default_params ~machines:w.machines () in
  let params = { base with target_utilization = 0.5; horizon_s = 0.; seed = w.cluster_seed } in
  let trace = Cluster.Trace.generate params in
  let t1 = Clock.now_ns () in
  let cluster = Cluster.State.create trace.Cluster.Trace.topology in
  let sched = S.create cluster ~policy:(fun ~drain net st -> Firmament.Policy_quincy.make ~drain net st) in
  List.iter (S.submit_job sched) trace.Cluster.Trace.initial_jobs;
  let t2 = Clock.now_ns () in
  let rec settle i =
    let r = S.schedule sched ~now:0. in
    if i < 5 && r.S.started <> [] && Cluster.State.waiting_count cluster > 0 then settle (i + 1)
  in
  settle 0;
  let t3 = Clock.now_ns () in
  let index = Index.create () in
  Cluster.State.iter_tasks cluster (fun t -> if W.is_running t then Index.add index t.W.tid);
  let st =
    {
      sched;
      cluster;
      gen = Gen.make ~seed ~machines:w.machines;
      churn = w.churn;
      index;
      job_t_sub = [||];
      placed = Bytes.empty;
      unplaced = 0;
      next_jid = 1_000_000;
      next_tid = first_tid;
      now = 1.;
      degraded = 0;
      discards = 0;
    }
  in
  let s ns = Clock.s_of_ns ns in
  let times =
    { trace_s = s (t1 - t0); graph_s = s (t2 - t1); cold_solve_s = s (t3 - t2); total_s = s (t3 - t0);
      scale = L.scale_of_probe_ms (L.spot_probe_ms ()) }
  in
  (st, times)

(* {1 Rounds} *)

type window = {
  t0 : int;
  lat_ms : L.samples;
  mutable rounds : int;
  mutable events : int;
  steps : L.samples;  (** seconds each step took, at its start *)
  steal : L.steal_log;
  host : L.host;
}

let new_window () =
  {
    t0 = Clock.now_ns ();
    lat_ms = L.samples ();
    rounds = 0;
    events = 0;
    steps = L.samples ();
    steal = L.steal_log ();
    host = L.host ();
  }

let account st (win : window option) ~t_end (r : S.round) =
  List.iter
    (fun (tid, _) ->
      let i = tid - first_tid in
      if i >= 0 && Bytes.get st.placed i = '\000' then begin
        Bytes.set st.placed i '\001';
        st.unplaced <- st.unplaced - 1;
        let t_sub = st.job_t_sub.(i / st.churn) in
        Option.iter (fun w -> L.add w.lat_ms ~t:t_end (float_of_int (t_end - t_sub) /. 1e6)) win
      end;
      Index.add st.index tid)
    r.S.started;
  List.iter (Index.remove st.index) r.S.preempted;
  if r.S.degraded <> `None then st.degraded <- st.degraded + 1;
  st.discards <- st.discards + List.length r.S.discarded;
  Option.iter (fun w -> w.rounds <- w.rounds + 1) win

let ph_round = L.phase "round"
let ph_finish = L.phase "finish"
let ph_submit = L.phase "submit"
let ph_begin = L.phase "begin"
let ph_commit = L.phase "commit"

(* One step: [churn] running tasks finish, one job of [churn] tasks
   arrives, then one synchronous round. *)
let step st win =
  Telemetry.Trace.new_round L.ring;
  let t_round = L.span_open () in
  let g = Gen.step st.gen ~churn:st.churn in
  let finished = ref 0 in
  Array.iter
    (fun pick ->
      if st.index.Index.n > 0 then begin
        let tid = Index.take st.index (pick mod st.index.Index.n) in
        let t = L.span_open () in
        S.finish_task st.sched tid ~now:st.now;
        L.span_close ph_finish t;
        incr finished
      end)
    g.Gen.picks;
  let jid = st.next_jid in
  st.next_jid <- jid + 1;
  let tasks =
    Array.mapi
      (fun i (replicas, net) ->
        W.make_task ~tid:(st.next_tid + i) ~job:jid ~submit_time:st.now ~duration:120.
          ~input_mb:500. ~input_machines:replicas ~net_demand_mbps:net ())
      g.Gen.tasks
  in
  let first = st.next_tid - first_tid in
  st.next_tid <- st.next_tid + st.churn;
  if st.next_tid - first_tid > Bytes.length st.placed then begin
    st.placed <- Bytes.extend st.placed 0 (max 65536 (Bytes.length st.placed));
    Bytes.fill st.placed first (Bytes.length st.placed - first) '\000';
    let a = Array.make (Bytes.length st.placed / st.churn + 1) 0 in
    Array.blit st.job_t_sub 0 a 0 (Array.length st.job_t_sub);
    st.job_t_sub <- a
  end;
  let job = W.make_job ~jid ~klass:Cluster.Types.Batch ~submit_time:st.now ~tasks in
  let t = L.span_open () in
  let t_sub = Clock.now_ns () in
  S.submit_job st.sched job;
  L.span_close ph_submit t;
  st.job_t_sub.(first / st.churn) <- t_sub;
  st.unplaced <- st.unplaced + st.churn;
  let t = L.span_open () in
  let p = S.begin_round st.sched ~now:st.now in
  L.span_close ph_begin t;
  let t = L.span_open () in
  let r = S.commit_round st.sched p ~now:st.now in
  let t_end = Clock.now_ns () in
  L.span_close ph_commit t;
  account st win ~t_end r;
  Option.iter (fun w -> w.events <- w.events + !finished + Array.length tasks) win;
  L.span_close ph_round t_round;
  st.now <- st.now +. 1.

(* Mean time of a window's steps at the reference host speed, in ms. *)
let scaled_step_ms w =
  L.scaled_sum ~scale:(L.host_scale w.host) w.steps *. 1e3 /. float_of_int (max 1 w.rounds)

(* [rounds] steps, or fewer if they outlast [max_s]. *)
let run_window st ~rounds ~max_s =
  let w = new_window () in
  let deadline = w.t0 + Clock.ns_of_s max_s in
  while w.rounds < rounds && Clock.now_ns () < deadline do
    let t = Clock.now_ns () in
    step st (Some w);
    L.add w.steps ~t (Clock.s_of_ns (Clock.now_ns () - t));
    L.tick w.steal;
    L.host_tick w.host
  done;
  (* The window's wall time less the probes'. *)
  (w, Clock.s_of_ns (Clock.now_ns () - w.t0) -. (L.probe_sum_ms w.host /. 1e3))

(* {1 Correctness gate}

   Outside the measured window: one more step whose certified solution
   must pass the flow validators, then idle rounds until every submitted
   task is placed (at most three). *)
let gate st =
  let cert = ref None in
  S.set_round_observer st.sched (Some (fun _ _ ~certified -> cert := certified));
  step st None;
  S.set_round_observer st.sched None;
  let valid =
    match !cert with
    | Some g -> Flowgraph.Validate.is_feasible g && Flowgraph.Validate.is_optimal g
    | None -> false
  in
  let drains = ref 0 in
  while st.unplaced > 0 && !drains < 3 do
    let r = S.schedule st.sched ~now:st.now in
    account st None ~t_end:(Clock.now_ns ()) r;
    st.now <- st.now +. 1.;
    incr drains
  done;
  valid

(* {1 Run} *)

let run (w : workload) ~seed ~seconds ~trace ~setup_reps ~trace_out ~t_start =
  let selftest = Gen.self_test ~seed ~machines:w.machines ~churn:w.churn in
  (* Set up [setup_reps] times and keep the last cluster; the first
     repetition is timed from process start. *)
  let rec reps i acc =
    let t0 = if i = 0 then t_start else Clock.now_ns () in
    let st, times = setup w ~seed ~t0 in
    if i + 1 < setup_reps then begin
      Gc.compact ();
      reps (i + 1) (times :: acc)
    end
    else (st, times :: acc)
  in
  let st, all_times = reps 0 [] in
  let last = List.hd all_times in
  for _ = 1 to w.warmup_rounds do
    step st None
  done;
  let rounds = int_of_float (Float.round (seconds *. w.rounds_per_s)) in
  (* A window four times its nominal length is cut, so a run ends in time
     even on a much slower program. *)
  let max_s = 4. *. seconds in
  (* The traced run first measures an untraced reference window, so the
     cost of tracing can be reported. *)
  let ref_round_ms =
    if trace then begin
      let rw, _ = run_window st ~rounds:(max 1 (rounds / 4)) ~max_s in
      Some (scaled_step_ms rw)
    end
    else None
  in
  L.tracing := trace;
  let snap0 = L.snapshot () in
  let gc0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let cpu0 = L.self_cpu_s () and host0 = L.host_jiffies () in
  let win, wall_s = run_window st ~rounds ~max_s in
  let probe_s = L.probe_sum_ms win.host /. 1e3 in
  let cpu_s = L.self_cpu_s () -. cpu0 -. probe_s and steal = L.steal_pct host0 (L.host_jiffies ()) in
  let mw1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  let snap1 = L.snapshot () in
  L.tracing := false;
  let valid = gate st in
  let rss = L.peak_rss_mb "self" in
  let scale = L.host_scale win.host in
  let step_s = L.scaled_sum win.steps in
  let ref_step_s = L.scaled_sum ~scale win.steps in
  let cut = win.rounds < rounds in
  let rounds = float_of_int (max 1 win.rounds) in
  let events = float_of_int win.events in
  let unplaced = st.unplaced in
  let failed = unplaced + st.discards in
  let correct = selftest && valid && st.degraded = 0 && failed = 0 && win.lat_ms.L.len > 0 in
  let median f = L.median_of (List.map f all_times) in
  (* Timings at the reference host speed; see Ledger.host_scale. *)
  let e2e =
    [
      ("place_p50_ms", L.percentile ~scale win.lat_ms ~t0:win.t0 0.5);
      ("place_p90_ms", L.percentile ~scale win.lat_ms ~t0:win.t0 0.9);
      ("events_per_s", events /. ref_step_s);
      ("events_per_cpu_s", events /. (cpu_s *. ref_step_s /. step_s));
      ("setup_s", median (fun t -> t.total_s *. t.scale));
      ("peak_rss_mb", rss);
    ]
  in
  let loop_ms = wall_s *. 1e3 /. rounds in
  let layer =
    if not trace then []
    else begin
      let span = L.span_total in
      let per_task ph = let ns, n = span ph in if n = 0 then 0. else float_of_int ns /. 1e3 /. float_of_int n in
      let per_round ph = float_of_int (fst (span ph)) /. 1e6 /. rounds in
      let covered = List.fold_left (fun a ph -> a + fst (span ph)) 0 [ ph_finish; ph_submit; ph_begin; ph_commit ] in
      [
        ("setup.trace_s", median (fun t -> t.trace_s));
        ("setup.graph_s", median (fun t -> t.graph_s));
        ("setup.cold_solve_s", median (fun t -> t.cold_solve_s));
        ("events.submit_us", per_task ph_submit /. float_of_int st.churn);
        ("events.finish_us", per_task ph_finish);
        ("round.begin_ms", per_round ph_begin);
        ("round.commit_ms", per_round ph_commit);
        ("loop.round_ms", loop_ms);
        ("loop.covered_pct", 100. *. float_of_int covered /. (wall_s *. 1e9));
        ("gc.minor_kb_per_round", (mw1 -. mw0) *. 8. /. 1024. /. rounds);
        ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ]
      @ L.solver_layers snap0 snap1
      @ L.not_exercised
          [
            "srv.admission_wait_ms"; "srv.batch_size"; "srv.rounds"; "srv.round_ms";
            "srv.submit_to_push_ms"; "srv.busy_pct"; "client.nacks"; "client.protocol_errors";
            "journal.bytes_per_event";
          ]
    end
  in
  let overhead =
    match ref_round_ms with
    | Some r -> [ ("trace_overhead_pct", L.json_float (100. *. ((scaled_step_ms win /. r) -. 1.))) ]
    | None -> []
  in
  if trace then L.write_chrome_trace trace_out;
  {
    L.correct;
    attempted = max 1 win.events;
    failed;
    metrics = e2e @ layer;
    diag =
      [
        ("host_probe_ms", L.json_float (L.probe_mean_ms win.host));
        ("host_scale", L.json_float (ref_step_s /. step_s));
        ("probe_ms_by_second", L.json_list (L.by_second win.host.L.probes ~t0:win.t0 0.5));
        ("raw_p50_ms", L.json_float (L.percentile win.lat_ms ~t0:win.t0 0.5));
        ("raw_events_per_s", L.json_float (events /. wall_s));
        ("host_steal_pct", L.json_float steal);
        ("steal_by_second", L.json_list (List.rev win.steal.L.pct));
        ("p50_by_second", L.json_list (L.by_second win.lat_ms ~t0:win.t0 0.5));
        ("rounds", string_of_int win.rounds);
        ("window_cut", string_of_bool cut);
        ("window_s", L.json_float wall_s);
        ("latency_samples", string_of_int win.lat_ms.L.len);
        ("setup_reps_s", "[" ^ String.concat "," (List.rev_map (fun t -> L.json_float t.total_s) all_times) ^ "]");
        ("setup_scales", "[" ^ String.concat "," (List.rev_map (fun t -> L.json_float t.scale) all_times) ^ "]");
        ("seed_selftest", string_of_bool selftest);
        ("certified_valid", string_of_bool valid);
        ("degraded_rounds", string_of_int st.degraded);
        ("discards", string_of_int st.discards);
        ("unplaced", string_of_int unplaced);
        ("live_tasks", string_of_int (Cluster.State.live_task_count st.cluster));
        ("cold_solve_s", L.json_float last.cold_solve_s);
      ]
      @ overhead;
  }
