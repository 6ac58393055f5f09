(* The serve workload: the shipped firmament_serve daemon over a Unix
   socket, prefilled to half its slots with tasks that never finish, then
   driven by one client connection with an open-loop firehose of small
   jobs. Every task is timed from when its job was due to be sent to when
   its placement push arrives; a job's tasks finish together, a drawn run
   time after their push. Daemon-side numbers come from /proc and from its Prometheus
   scrape endpoint, read at both ends of the measured window. *)

module P = Server.Protocol
module Clock = Telemetry.Clock
module L = Ledger

type workload = {
  machines : int;
  slots : int;
  prefill_tasks : int;
  prefill_job : int;  (** tasks per prefill job *)
  prefill_seed : int;
      (** the prefill is a fixed fixture, like the simulated workloads'
          standing cluster, so every run's daemon starts from the same
          loaded graph and [--seed] drives only the firehose *)
  rate : float;  (** task events per second, submits plus finishes *)
  tasks_per_job : int;
  task_s : float;
  warmup_s : float;
  linger_ms : float;
}

(* {1 Daemon} *)

type daemon = { pid : int; sock : string; metrics_sock : string; snap : string }

let spawn exe ~out (w : workload) =
  let path name = Filename.concat out name in
  let d =
    { pid = 0; sock = path "serve.sock"; metrics_sock = path "metrics.sock"; snap = path "serve.snap" }
  in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ d.sock; d.metrics_sock; d.snap ];
  let log = Unix.openfile (path "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [|
      exe; "--listen"; "unix:" ^ d.sock; "--metrics-listen"; "unix:" ^ d.metrics_sock;
      "--machines"; string_of_int w.machines; "--slots"; string_of_int w.slots;
      "--policy"; "quincy"; "--mode"; "fastest"; "--linger-ms"; Printf.sprintf "%g" w.linger_ms;
      "--snapshot"; d.snap;
    |]
  in
  let pid = Unix.create_process exe args null log log in
  Unix.close log;
  Unix.close null;
  (* Never leave a daemon behind, whatever ends this process. *)
  at_exit (fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
      | _ | (exception Unix.Unix_error _) -> ());
  { d with pid }

let alive d = match Unix.waitpid [ Unix.WNOHANG ] d.pid with 0, _ -> true | _ -> false

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let rec await_listen d ~deadline =
  match connect_unix d.sock with
  | Some fd -> fd
  | None ->
      if Clock.now_ns () > deadline || not (alive d) then failwith "daemon did not start listening";
      Unix.sleepf 0.005;
      await_listen d ~deadline

(* One HTTP GET against the scrape endpoint. *)
let scrape d =
  match connect_unix d.metrics_sock with
  | None -> failwith "metrics endpoint unreachable"
  | Some fd ->
      let req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let b = Buffer.create 65536 and chunk = Bytes.create 65536 in
      let rec go () =
        match Unix.read fd chunk 0 65536 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            go ()
      in
      go ();
      Unix.close fd;
      let s = Buffer.contents b in
      let body =
        let rec find i =
          if i + 4 > String.length s then s
          else if String.sub s i 4 = "\r\n\r\n" then String.sub s (i + 4) (String.length s - i - 4)
          else find (i + 1)
        in
        find 0
      in
      L.snapshot_of_prometheus body

(* {1 Client connection} *)

type client = {
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable inlen : int;
  out : Buffer.t;
  mutable eof : bool;
  mutable protocol_errors : int;
  mutable shutdown_seen : bool;
}

let client fd =
  {
    fd;
    inbuf = Bytes.create 65536;
    inlen = 0;
    out = Buffer.create 65536;
    eof = false;
    protocol_errors = 0;
    shutdown_seen = false;
  }

let send c f = P.encode_into c.out f

let flush c =
  let s = Buffer.contents c.out in
  Buffer.clear c.out;
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* Wait up to [timeout] seconds for input and hand every whole frame to
   [on_frame]. *)
let poll c ~timeout on_frame =
  flush c;
  if not c.eof then
    match Unix.select [ c.fd ] [] [] (Float.max 0. timeout) with
    | [], _, _ -> ()
    | _ ->
        if c.inlen = Bytes.length c.inbuf then begin
          let b = Bytes.create (2 * c.inlen) in
          Bytes.blit c.inbuf 0 b 0 c.inlen;
          c.inbuf <- b
        end;
        let n = Unix.read c.fd c.inbuf c.inlen (Bytes.length c.inbuf - c.inlen) in
        if n = 0 then c.eof <- true
        else begin
          c.inlen <- c.inlen + n;
          let off = ref 0 and go = ref true in
          while !go do
            match P.decode c.inbuf ~off:!off ~len:(c.inlen - !off) with
            | `Frame (f, used) ->
                off := !off + used;
                (match f with
                | P.Protocol_error _ -> c.protocol_errors <- c.protocol_errors + 1
                | P.Shutdown _ -> c.shutdown_seen <- true
                | _ -> ());
                on_frame f
            | `Need_more -> go := false
            | `Error _ ->
                c.protocol_errors <- c.protocol_errors + 1;
                c.eof <- true;
                go := false
          done;
          Bytes.blit c.inbuf !off c.inbuf 0 (c.inlen - !off);
          c.inlen <- c.inlen - !off
        end

(* {1 Input generator}

   The firehose, seeded by [--seed] alone. Job [j] is due at
   [(j + u) * interval] after the firehose starts, [u] uniform on [0, 1)
   and [interval] the gap that gives [rate] task events per second (half
   submits, half finishes): the offered count is exact, but arrivals and
   finishes never fall into lockstep. Each job also draws its locality
   seed and its tasks' run time, uniform on [0.5, 1.5] x [task_s]. *)
module Gen = struct
  type t = { rng : Random.State.t; interval_s : float; w : workload; mutable j : int }
  type job = { due_ns : int; locality : int; run_s : float }

  let make (w : workload) ~seed =
    {
      rng = Random.State.make [| seed; 0xa77 |];
      interval_s = float_of_int w.tasks_per_job /. (w.rate /. 2.);
      w;
      j = 0;
    }

  (* The next job; [due_ns] is relative to the firehose's start. *)
  let job g =
    let due_s = (float_of_int g.j +. Random.State.float g.rng 1.) *. g.interval_s in
    g.j <- g.j + 1;
    let locality = Random.State.int g.rng 1_000_000 in
    let run_s = g.w.task_s *. (0.5 +. Random.State.float g.rng 1.) in
    { due_ns = Clock.ns_of_s due_s; locality; run_s }

  (* The same seed must give the same sequence, another seed another. *)
  let self_test (w : workload) ~seed =
    let digest seed =
      let g = make w ~seed in
      Digest.string (String.concat ";" (List.init 200 (fun _ ->
          let j = job g in
          Printf.sprintf "%d,%d,%h" j.due_ns j.locality j.run_s)))
    in
    digest seed = digest seed && digest seed <> digest (seed + 1)
end

(* {1 Firehose state} *)

(* Finishes due, ordered by (due time, task id). *)
module Due = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type fire = {
  c : client;
  mutable seq : int;
  pending : (int, P.frame * int) Hashtbl.t;  (** seq -> frame, task events *)
  retry : (float * P.frame * int) Queue.t;  (** NACKed: due time, frame, events *)
  due_ns : (int, int) Hashtbl.t;  (** unplaced tid -> its job's due time *)
  running : (int, unit) Hashtbl.t;
  run_s : (int, float) Hashtbl.t;  (** jid -> its tasks' run time once placed *)
  mutable finishes : Due.t;
  lat_ms : L.samples;
  mutable measure_from : int;  (** jobs due at or after this are sampled *)
  mutable measure_to : int;
  mutable count_acks : bool;
  mutable acked : int;
  mutable nacks : int;
  mutable placed : int;
  mutable late_max_ns : int;
  job_spans : (int, int * int ref) Hashtbl.t;  (** jid -> span start, tasks unplaced *)
}

let next_seq f =
  f.seq <- f.seq + 1;
  f.seq

let send_event f frame events =
  let seq = next_seq f in
  let frame =
    match frame with
    | P.Submit_job j -> P.Submit_job { j with seq }
    | P.Finish_task t -> P.Finish_task { t with seq }
    | other -> other
  in
  Hashtbl.replace f.pending seq (frame, events);
  send f.c frame

let submit f ~jid ~tasks ~duration ~locality ~due =
  for i = 0 to tasks - 1 do
    Hashtbl.replace f.due_ns ((jid * 1000) + i) due
  done;
  send_event f (P.Submit_job { seq = 0; jid; task_count = tasks; duration; locality }) tasks

let ph_job = L.phase "job"

let on_frame f frame =
  let now = Clock.now_ns () in
  match frame with
  | P.Ack { seq } -> (
      match Hashtbl.find_opt f.pending seq with
      | Some (_, events) ->
          Hashtbl.remove f.pending seq;
          if f.count_acks then f.acked <- f.acked + events
      | None -> ())
  | P.Nack { seq; retry_after_ms } -> (
      f.nacks <- f.nacks + 1;
      match Hashtbl.find_opt f.pending seq with
      | Some (fr, events) ->
          Hashtbl.remove f.pending seq;
          Queue.push (Clock.s_of_ns now +. (float_of_int retry_after_ms /. 1e3), fr, events) f.retry
      | None -> ())
  | P.Placement_delta { placements; _ } ->
      List.iter
        (fun (p : P.placement) ->
          match p.p_kind with
          | P.Start ->
              Hashtbl.replace f.running p.p_tid ();
              (match Hashtbl.find_opt f.due_ns p.p_tid with
              | Some due ->
                  Hashtbl.remove f.due_ns p.p_tid;
                  f.placed <- f.placed + 1;
                  if due >= f.measure_from && due < f.measure_to then
                    L.add f.lat_ms ~t:now (float_of_int (now - due) /. 1e6);
                  let jid = p.p_tid / 1000 in
                  (match Hashtbl.find_opt f.job_spans jid with
                  | Some (t0, left) ->
                      decr left;
                      if !left = 0 then begin
                        L.span_close ph_job t0;
                        Hashtbl.remove f.job_spans jid
                      end
                  | None -> ())
              | None -> ());
              (* Prefill tasks have no duration and never finish. *)
              Option.iter
                (fun d -> f.finishes <- Due.add (now + Clock.ns_of_s d, p.p_tid) f.finishes)
                (Hashtbl.find_opt f.run_s (p.p_tid / 1000))
          | P.Preempt -> Hashtbl.remove f.running p.p_tid
          | P.Migrate -> ())
        placements
  | _ -> ()

let send_due f =
  let now = Clock.now_ns () in
  while (not (Due.is_empty f.finishes)) && fst (Due.min_elt f.finishes) <= now do
    let ((due, tid) as e) = Due.min_elt f.finishes in
    f.finishes <- Due.remove e f.finishes;
    if Hashtbl.mem f.running tid then begin
      Hashtbl.remove f.running tid;
      f.late_max_ns <- max f.late_max_ns (now - due);
      send_event f (P.Finish_task { seq = 0; tid }) 1
    end
  done;
  let now_s = Clock.s_of_ns now in
  while (not (Queue.is_empty f.retry)) && (let t, _, _ = Queue.peek f.retry in t <= now_s) do
    let _, fr, events = Queue.pop f.retry in
    send_event f fr events
  done

(* {1 Set-up: start the daemon and prefill it} *)

type setup_times = {
  start_s : float;
  prefill_s : float;
  total_s : float;
  scale : float;  (** host speed right after, see Ledger.host_scale *)
}

let start_and_prefill exe ~out (w : workload) ~t0 =
  let d = spawn exe ~out w in
  let fd = await_listen d ~deadline:(Clock.now_ns () + Clock.ns_of_s 60.) in
  let t1 = Clock.now_ns () in
  let f =
    {
      c = client fd;
      seq = 0;
      pending = Hashtbl.create 1024;
      retry = Queue.create ();
      due_ns = Hashtbl.create 16384;
      running = Hashtbl.create 16384;
      run_s = Hashtbl.create 1024;
      finishes = Due.empty;
      lat_ms = L.samples ();
      measure_from = max_int;
      measure_to = max_int;
      count_acks = false;
      acked = 0;
      nacks = 0;
      placed = 0;
      late_max_ns = 0;
      job_spans = Hashtbl.create 1024;
    }
  in
  send f.c (P.Subscribe { seq = next_seq f });
  let jobs = w.prefill_tasks / w.prefill_job in
  let rng = Random.State.make [| w.prefill_seed; 0xf1e |] in
  for jid = 1 to jobs do
    submit f ~jid ~tasks:w.prefill_job ~duration:1e9 ~locality:(Random.State.int rng 1_000_000)
      ~due:t1
  done;
  let deadline = Clock.now_ns () + Clock.ns_of_s 120. in
  while f.placed < jobs * w.prefill_job && not f.c.eof do
    if Clock.now_ns () > deadline then failwith "prefill was not placed in time";
    send_due f;
    poll f.c ~timeout:0.05 (on_frame f)
  done;
  let t2 = Clock.now_ns () in
  let s ns = Clock.s_of_ns ns in
  let scale = L.scale_of_probe_ms (L.spot_probe_ms ~cpu:true ()) in
  (d, f, { start_s = s (t1 - t0); prefill_s = s (t2 - t1); total_s = s (t2 - t0); scale })

(* SIGTERM, read to EOF (the daemon says goodbye and closes), reap. *)
let stop d f =
  Unix.kill d.pid Sys.sigterm;
  let deadline = Clock.now_ns () + Clock.ns_of_s 60. in
  while (not f.c.eof) && Clock.now_ns () < deadline do
    poll f.c ~timeout:0.05 (fun _ -> ())
  done;
  Unix.close f.c.fd;
  match Unix.waitpid [] d.pid with _, Unix.WEXITED 0 -> true | _ -> false

(* {1 Run} *)

let run (w : workload) ~exe ~out ~seed ~seconds ~trace ~setup_reps ~trace_out ~t_start =
  let selftest = Gen.self_test w ~seed in
  let rec reps i acc =
    let t0 = if i = 0 then t_start else Clock.now_ns () in
    let d, f, times = start_and_prefill exe ~out w ~t0 in
    if i + 1 < setup_reps then begin
      if not (stop d f) then failwith "daemon did not exit cleanly";
      reps (i + 1) (times :: acc)
    end
    else (d, f, times :: acc)
  in
  let d, f, all_times = reps 0 [] in
  let prefill_placed = f.placed = w.prefill_tasks in
  let gen = Gen.make w ~seed in
  let t_fire = Clock.now_ns () in
  let t_w0 = t_fire + Clock.ns_of_s w.warmup_s in
  let t_w1 = t_w0 + Clock.ns_of_s seconds in
  f.measure_from <- t_w0;
  f.measure_to <- t_w1;
  let job = ref (Gen.job gen) in
  let due = ref (t_fire + !job.Gen.due_ns) in
  let jid = ref 1000 in
  let submitted = ref 0 in
  (* The daemon shares the CPU and may run during a probe, so the probe
     is timed by this process's CPU time. *)
  let host = L.host ~cpu:true ~from:t_w0 () in
  let pass () =
    let now = Clock.now_ns () in
    while !due <= now && !due < t_w1 do
      f.late_max_ns <- max f.late_max_ns (now - !due);
      if !L.tracing then
        Hashtbl.replace f.job_spans !jid (L.span_open (), ref w.tasks_per_job);
      Hashtbl.replace f.run_s !jid !job.Gen.run_s;
      submit f ~jid:!jid ~tasks:w.tasks_per_job ~duration:w.task_s ~locality:!job.Gen.locality
        ~due:!due;
      submitted := !submitted + w.tasks_per_job;
      incr jid;
      job := Gen.job gen;
      due := t_fire + !job.Gen.due_ns
    done;
    send_due f;
    let next =
      if Due.is_empty f.finishes then !due else min !due (fst (Due.min_elt f.finishes))
    in
    (* Probe only when nothing is due for 2 ms, so the probe delays no
       send. *)
    if next - Clock.now_ns () > 2_000_000 then L.host_tick host;
    poll f.c ~timeout:(Float.min 0.01 (Clock.s_of_ns (max 0 (next - Clock.now_ns ())))) (on_frame f)
  in
  while Clock.now_ns () < t_w0 do
    pass ()
  done;
  let snap0 = scrape d in
  let client_cpu0 = L.self_cpu_s () in
  let cpu0 = L.cpu_s d.pid and size0 = (Unix.stat d.snap).Unix.st_size in
  let host0 = L.host_jiffies () in
  L.tracing := trace;
  f.count_acks <- true;
  let nacks0 = f.nacks in
  let steal_log = L.steal_log () in
  while Clock.now_ns () < t_w1 do
    pass ();
    L.tick steal_log
  done;
  f.count_acks <- false;
  L.tracing := false;
  let wall_s = Clock.s_of_ns (Clock.now_ns () - t_w0) in
  let client_cpu_s = L.self_cpu_s () -. client_cpu0 in
  let cpu_s = L.cpu_s d.pid -. cpu0 and size1 = (Unix.stat d.snap).Unix.st_size in
  let steal = L.steal_pct host0 (L.host_jiffies ()) in
  let snap1 = scrape d in
  (* Let everything sent be acked and placed, then shut the daemon down. *)
  let deadline = Clock.now_ns () + Clock.ns_of_s 20. in
  while
    (Hashtbl.length f.due_ns > 0 || Hashtbl.length f.pending > 0)
    && (not f.c.eof) && Clock.now_ns () < deadline
  do
    poll f.c ~timeout:0.05 (on_frame f)
  done;
  let rss = L.peak_rss_mb (string_of_int d.pid) in
  let unplaced = Hashtbl.length f.due_ns and unacked = Hashtbl.length f.pending in
  let shutdown_early = f.c.shutdown_seen in
  let clean_exit = stop d f in
  let scale = L.host_scale host in
  let mean_scale = L.scale_of_probe_ms (L.probe_mean_ms host) in
  let events = float_of_int f.acked in
  let failed = unplaced + unacked in
  let correct =
    selftest && prefill_placed && clean_exit && (not shutdown_early) && f.c.protocol_errors = 0 && failed = 0
    && f.lat_ms.L.len > 0
  in
  let median g = L.median_of (List.map g all_times) in
  (* Timings at the reference host speed; see Ledger.host_scale. The
     event rate is the offered rate, a wall-clock quantity. *)
  let e2e =
    [
      ("place_p50_ms", L.percentile ~scale f.lat_ms ~t0:t_w0 0.5);
      ("place_p90_ms", L.percentile ~scale f.lat_ms ~t0:t_w0 0.9);
      ("events_per_s", events /. wall_s);
      ("events_per_cpu_s", events /. (cpu_s *. mean_scale));
      ("setup_s", median (fun t -> t.total_s *. t.scale));
      ("peak_rss_mb", rss);
    ]
  in
  let layer =
    if not trace then []
    else begin
      let dl = L.delta snap0 snap1 and hm = L.hist_mean ~scale:1e-6 snap0 snap1 in
      [
        ("setup.graph_s", median (fun t -> t.start_s));
        ("setup.cold_solve_s", median (fun t -> t.prefill_s));
        ("loop.round_ms", hm "srv_round_ns");
        ("srv.admission_wait_ms", hm "srv_admission_wait_ns");
        ("srv.batch_size", L.hist_mean snap0 snap1 "srv_batch_size");
        ("srv.rounds", dl "srv_rounds_total");
        ("srv.round_ms", hm "srv_round_ns");
        ("srv.submit_to_push_ms", hm "srv_submit_to_push_ns");
        ("srv.busy_pct", 100. *. cpu_s /. wall_s);
        ("client.nacks", float_of_int (f.nacks - nacks0));
        ("client.protocol_errors", float_of_int f.c.protocol_errors);
        ("journal.bytes_per_event", float_of_int (size1 - size0) /. Float.max 1. events);
      ]
      @ L.solver_layers snap0 snap1
      @ L.not_exercised
          [
            "setup.trace_s"; "events.submit_us"; "events.finish_us"; "round.begin_ms";
            "round.commit_ms"; "loop.covered_pct"; "gc.minor_kb_per_round"; "gc.major_collections";
          ]
    end
  in
  if trace then L.write_chrome_trace trace_out;
  {
    L.correct;
    attempted = max 1 f.acked;
    failed;
    metrics = e2e @ layer;
    diag =
      [
        ("host_probe_ms", L.json_float (L.probe_mean_ms host));
        ("host_scale", L.json_float mean_scale);
        ("probe_ms_by_second", L.json_list (L.by_second host.L.probes ~t0:t_w0 0.5));
        ("raw_p50_ms", L.json_float (L.percentile f.lat_ms ~t0:t_w0 0.5));
        ("raw_p90_ms", L.json_float (L.percentile f.lat_ms ~t0:t_w0 0.9));
        ("raw_events_per_cpu_s", L.json_float (events /. cpu_s));
        ("host_steal_pct", L.json_float steal);
        ("steal_by_second", L.json_list (List.rev steal_log.L.pct));
        ("p50_by_second", L.json_list (L.by_second f.lat_ms ~t0:t_w0 0.5));
        ("window_s", L.json_float wall_s);
        ("latency_samples", string_of_int f.lat_ms.L.len);
        ("tasks_submitted", string_of_int !submitted);
        ("generator_late_max_ms", L.json_float (float_of_int f.late_max_ns /. 1e6));
        ("setup_reps_s", "[" ^ String.concat "," (List.rev_map (fun t -> L.json_float t.total_s) all_times) ^ "]");
        ("setup_scales", "[" ^ String.concat "," (List.rev_map (fun t -> L.json_float t.scale) all_times) ^ "]");
        ("seed_selftest", string_of_bool selftest);
        ("prefill_placed", string_of_bool prefill_placed);
        ("clean_exit", string_of_bool clean_exit);
        ("unplaced", string_of_int unplaced);
        ("daemon_cpu_s", L.json_float cpu_s);
        ("client_cpu_s", L.json_float client_cpu_s);
        ("srv_submit_to_push_ms", L.json_float (L.hist_mean ~scale:1e-6 snap0 snap1 "srv_submit_to_push_ns"));
        ("srv_round_ms", L.json_float (L.hist_mean ~scale:1e-6 snap0 snap1 "srv_round_ns"));
        ("srv_admission_wait_ms", L.json_float (L.hist_mean ~scale:1e-6 snap0 snap1 "srv_admission_wait_ns"));
        ("srv_batch_size", L.json_float (L.hist_mean snap0 snap1 "srv_batch_size"));
      ];
  }
