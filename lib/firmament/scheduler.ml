module FN = Flow_network

let log = Logs.Src.create "firmament.scheduler" ~doc:"Firmament scheduling rounds"

module Log = (val Logs.src_log log)

(* Telemetry ids, registered once at module init. Round phases are
   measured with contiguous checkpoints (each phase starts where the
   previous ended), so the per-phase durations of a round sum exactly to
   its wall time — that is what lets a deadline-bounded [`Partial] round
   show where the budget went. *)
let m = Telemetry.Metrics.global ()
let tr = Telemetry.Trace.global ()

let m_rounds =
  Telemetry.Metrics.counter m ~help:"scheduling rounds run" "sched_rounds_total"

let m_rounds_partial =
  Telemetry.Metrics.counter m ~help:"rounds degraded to partial (deadline hit)"
    "sched_rounds_partial_total"

let m_rounds_failed =
  Telemetry.Metrics.counter m ~help:"rounds failed (infeasible after scratch retry)"
    "sched_rounds_failed_total"

let m_rounds_retried =
  Telemetry.Metrics.counter m ~help:"rounds that needed the from-scratch retry"
    "sched_rounds_retried_total"

let m_started =
  Telemetry.Metrics.counter m ~help:"task starts committed" "sched_tasks_started_total"

let m_migrated =
  Telemetry.Metrics.counter m ~help:"task migrations committed"
    "sched_tasks_migrated_total"

let m_preempted =
  Telemetry.Metrics.counter m ~help:"task preemptions committed"
    "sched_tasks_preempted_total"

let m_unscheduled =
  Telemetry.Metrics.gauge m ~help:"tasks left waiting after the latest round"
    "sched_unscheduled_tasks"

let m_round_ns =
  Telemetry.Metrics.histogram m ~help:"whole-round wall time (ns)" "sched_round_ns"

let m_refresh_ns =
  Telemetry.Metrics.histogram m ~help:"policy-refresh phase (ns)" "sched_phase_refresh_ns"

let m_solve_ns =
  Telemetry.Metrics.histogram m ~help:"solve phase incl. infeasibility retry (ns)"
    "sched_phase_solve_ns"

(* Split attribution of the solve phase: [win] is the winning solver's
   algorithm runtime (retry attempts included), [wait] is everything else
   the round spent inside the solve phase — capped losers in sequential
   mode, dispatch copies, join overhead. A round the repair path
   resolves makes no dispatch copy (the repair runs on the canonical
   graph), so its wait is only the call overhead around the repair.
   These are observability sub-phases of [sched_phase_solve_ns], not
   additional round phases: win + wait ≈ solve, and the round's phase
   list is unchanged. *)
let m_solve_win_ns =
  Telemetry.Metrics.histogram m ~help:"winning solver's algorithm runtime (ns)"
    "sched_phase_solve_win_ns"

let m_solve_wait_ns =
  Telemetry.Metrics.histogram m
    ~help:
      "solve-phase time beyond the winner: losers, dispatch copies (none on \
       repaired rounds), join (ns)"
    "sched_phase_solve_wait_ns"

let m_adopt_ns =
  Telemetry.Metrics.histogram m ~help:"graph adoption phase (swap + recycle) (ns)"
    "sched_phase_adopt_ns"

let m_extract_ns =
  Telemetry.Metrics.histogram m ~help:"placement extraction phase (ns)"
    "sched_phase_extract_ns"

let m_prepare_ns =
  Telemetry.Metrics.histogram m ~help:"price-refine preparation phase (ns)"
    "sched_phase_prepare_ns"

let m_apply_ns =
  Telemetry.Metrics.histogram m ~help:"placement-diff application phase (ns)"
    "sched_phase_apply_ns"

(* Graph-change batch applied since the previous round's solve. *)
let m_chg_structural =
  Telemetry.Metrics.counter m ~help:"structural graph changes applied"
    "sched_graph_structural_changes_total"

let m_chg_cost =
  Telemetry.Metrics.counter m ~help:"arc cost changes applied"
    "sched_graph_cost_changes_total"

let m_chg_capacity =
  Telemetry.Metrics.counter m ~help:"arc capacity changes applied"
    "sched_graph_capacity_changes_total"

let m_chg_supply =
  Telemetry.Metrics.counter m ~help:"node supply changes applied"
    "sched_graph_supply_changes_total"

(* Pipelined-round observability: how much solver time the caller
   overlapped with other work, how long commit still had to wait, and
   which placements the stale-aware commit discarded. *)
let m_pipeline_overlap_ns =
  Telemetry.Metrics.histogram m
    ~help:"solver time overlapped with caller work between begin and commit (ns)"
    "sched_pipeline_overlap_ns"

let m_pipeline_wait_ns =
  Telemetry.Metrics.histogram m
    ~help:"commit-side wait for the in-flight solve (ns)" "sched_pipeline_wait_ns"

let m_rounds_overlapped =
  Telemetry.Metrics.counter m
    ~help:"rounds that absorbed cluster events while the solve was in flight"
    "sched_rounds_overlapped_total"

let m_interleave_copies =
  Telemetry.Metrics.counter m
    ~help:
      "repaired-in-place rounds whose first mid-solve event copied the solution \
       off the canonical graph"
    "sched_interleave_copies_total"

let m_stale_task_discards =
  Telemetry.Metrics.counter m
    ~help:"placements discarded at commit: task finished/preempted mid-solve"
    "sched_stale_task_discards_total"

let m_stale_machine_discards =
  Telemetry.Metrics.counter m
    ~help:"placements discarded at commit: machine failed mid-solve"
    "sched_stale_machine_discards_total"

let m_capacity_discards =
  Telemetry.Metrics.counter m
    ~help:"placements discarded at commit by the authoritative capacity re-check"
    "sched_capacity_discards_total"

let m_replays =
  Telemetry.Metrics.counter m
    ~help:
      "placements replaying a task that finished mid-solve on the machine it \
       actually ran on — harmless no-ops, not stale discards"
    "sched_noop_replays_total"

let t_refresh = Telemetry.Trace.register tr "sched.refresh"
let t_solve = Telemetry.Trace.register tr "sched.solve"
let t_adopt = Telemetry.Trace.register tr "sched.adopt"
let t_extract = Telemetry.Trace.register tr "sched.extract"
let t_prepare = Telemetry.Trace.register tr "sched.prepare"
let t_apply = Telemetry.Trace.register tr "sched.apply"

type config = {
  mode : Mcmf.Race.mode;
  alpha : int;
  price_refine : bool;
  drain_on_removal : bool;
  deadline : float option;
  incremental : bool;
  incremental_budget : int;
}

let default_config =
  {
    mode = Mcmf.Race.Fastest_sequential;
    alpha = 9;
    price_refine = true;
    drain_on_removal = true;
    deadline = None;
    incremental = true;
    incremental_budget = 512;
  }

type degraded = [ `None | `Partial | `Infeasible_retry | `Failed ]

let pp_degraded ppf d =
  Format.pp_print_string ppf
    (match d with
    | `None -> "none"
    | `Partial -> "partial"
    | `Infeasible_retry -> "infeasible-retry"
    | `Failed -> "failed")

type discard_reason = [ `Stale_task | `Stale_machine | `Capacity ]

let pp_discard_reason ppf r =
  Format.pp_print_string ppf
    (match r with
    | `Stale_task -> "stale-task"
    | `Stale_machine -> "stale-machine"
    | `Capacity -> "capacity")

type round = {
  winner : Mcmf.Race.winner;
  solver_stats : Mcmf.Solver_intf.stats;
  relaxation_stats : Mcmf.Solver_intf.stats option;
  cost_scaling_stats : Mcmf.Solver_intf.stats option;
  algorithm_runtime : float;
  degraded : degraded;
  started : (Cluster.Types.task_id * Cluster.Types.machine_id) list;
  migrated :
    (Cluster.Types.task_id * Cluster.Types.machine_id * Cluster.Types.machine_id) list;
  preempted : Cluster.Types.task_id list;
  unscheduled : int;
  discarded : (Cluster.Types.task_id * discard_reason) list;
  replayed : int;
  phase_ns : (string * int) list;
}

(* A begun-but-not-committed round. Everything the commit needs to decide
   whether the solver snapshot is still current: the graph change summary
   and cluster event epoch at dispatch, plus a log of the structural
   events absorbed while the solve was in flight (so the snapshot can be
   read back even though the live node tables moved on — including node
   ids recycled by the graph's freelist). *)
type pending = {
  p_handle : Mcmf.Race.handle;
  p_stop : Mcmf.Solver_intf.stop;
  p_epoch : int;
  p_changes : Flowgraph.Graph.change_summary;
  mutable p_mid_added : Cluster.Types.task_id list;
  mutable p_mid_finished : (Cluster.Types.task_id * Flowgraph.Graph.node) list;
  (* Begin-time assignments of tasks that finished mid-solve, captured
     before the finish dropped them from [assigned]: the commit uses
     these to tell a harmless replay (solver re-stating where a finished
     task actually ran) from a genuinely stale placement. *)
  mutable p_mid_fin_prev : (Cluster.Types.task_id * Cluster.Types.machine_id) list;
  mutable p_mid_failed : (Cluster.Types.machine_id * Flowgraph.Graph.node) list;
  p_ck0 : int;  (* round begin *)
  p_ck1 : int;  (* refresh end *)
  p_ck2 : int;  (* dispatch end; begin_round returned here *)
}

type t = {
  config : config;
  cluster : Cluster.State.t;
  net : FN.t;
  policy : Policy.t;
  race : Mcmf.Race.t;
  assigned : (Cluster.Types.task_id, Cluster.Types.machine_id) Hashtbl.t;
  (* Reusable extraction workspace: delta decomposition of the last
     adopted optimal flow plus scratch budgets for the pseudoflow walks. *)
  ws : Placement.workspace;
  (* Tasks whose delta-reported assignment was discarded at commit
     (stale/capacity): the decomposition thinks they are placed, the
     cluster does not, and the flow may not move again — re-emit their
     stored assignment on the next delta commit so they are not lost. *)
  retry : (Cluster.Types.task_id, unit) Hashtbl.t;
  (* Change-summary totals at the previous solve, for per-round deltas
     (the summary on the graph accumulates; nobody may reset it here —
     incremental solvers read it through their own channel). *)
  mutable last_changes : Flowgraph.Graph.change_summary;
  mutable pending : pending option;
  (* Debug observer for the fuzz harness: called once per committed round
     with the round record, the canonical post-commit graph and — on rounds
     that adopted a certified-optimal solve — a pre-commit snapshot of that
     solution (the post-commit graph itself already carries the placement
     diff's policy mutations, so it is not the thing the solver certified). *)
  mutable observer :
    (round -> Flowgraph.Graph.t -> certified:Flowgraph.Graph.t option -> unit)
    option;
}

(* Pre-size the flow graph from the cluster's shape so steady-state
   rounds never pay growth doublings: one node per machine/rack plus
   roughly one task per slot (with aggregator and churn headroom), and a
   few arcs per node (task→aggregator→machine→sink chains). *)
let size_hints cluster =
  let topo = Cluster.State.topology cluster in
  let machines = Cluster.Topology.machine_count topo in
  let slots = Cluster.Topology.total_slots topo in
  let node_hint = (2 * (machines + slots)) + 64 in
  (node_hint, 4 * node_hint)

let make config cluster ~net ~policy ~assigned ~preallocate =
  let node_hint, arc_hint = size_hints cluster in
  (* The policy installs its structure before the change baseline is read. *)
  let policy = policy ~drain:config.drain_on_removal net cluster in
  {
    config;
    cluster;
    net;
    policy;
    race =
      Mcmf.Race.create ~alpha:config.alpha ~price_refine:config.price_refine
        ~incremental:config.incremental ~preallocate ~node_hint ~arc_hint
        ~mode:config.mode ();
    assigned;
    ws = Placement.create_workspace ~node_hint ~arc_hint ();
    retry = Hashtbl.create 16;
    last_changes = Flowgraph.Graph.peek_changes (FN.graph net);
    pending = None;
    observer = None;
  }

let create ?(config = default_config) cluster ~policy =
  let node_hint, arc_hint = size_hints cluster in
  make config cluster ~policy ~assigned:(Hashtbl.create 1024) ~preallocate:true
    ~net:(FN.create ~node_hint ~arc_hint ())

(* Rebuild a scheduler around restored state: a cluster replayed from a
   snapshot base image and the flow network parsed from its graph dump.
   The assignment table is rederived from the cluster's running set (the
   two are the same fact, so the snapshot does not store it twice); the
   extraction workspace and retry set start empty — the first committed
   round after restore reports every task, exactly like the first round
   of a fresh scheduler. The policy factory runs over the restored
   network, where its ensure-style installers find every structure
   already present and leave the warm graph untouched.
   [preallocate:false]: a restore must be live fast, and the eagerly
   over-provisioned scratch-graph pool costs seconds of zeroing + GC
   marking at large scale. The solver workspaces are still reserved;
   only the first post-restore solve's working copies are allocated
   lazily, at the actual graph size. *)
let of_restored ?(config = default_config) cluster ~net ~policy =
  let assigned = Hashtbl.create 1024 in
  Cluster.State.iter_tasks cluster (fun task ->
      match Cluster.Workload.machine_of task with
      | Some mm -> Hashtbl.replace assigned task.Cluster.Workload.tid mm
      | None -> ());
  make config cluster ~net ~policy ~assigned ~preallocate:false

(* Arm the incremental-repair path on the restored warm start: certify
   the canonical graph (potentials + flow from the snapshot) exactly as
   an adopted optimal round would. Called once, after snapshot replay
   has finished mutating the graph. *)
let prepare_warm t = Mcmf.Race.prepare t.race (FN.graph t.net)

let network t = t.net
let cluster t = t.cluster
let policy_name t = t.policy.Policy.name

(* Cluster events are legal while a round is in flight: the solvers work
   on copies taken at begin, so mutating the canonical graph here is
   safe. A round the repair resolved in place is the exception — its
   solution is the canonical graph — so the first event moves it onto a
   pooled copy and undoes it on the canonical graph ([unshare]), after
   which the commit reads that copy as it would a solver's. Each event
   that changes the task/machine node population is logged on the
   pending round, so the commit can still read the solver's snapshot
   with begin-time node identities. *)
let unshare t =
  match t.pending with
  | Some p -> if Mcmf.Race.unshare p.p_handle then Telemetry.Metrics.incr m m_interleave_copies
  | None -> ()

let submit_job t job =
  unshare t;
  Cluster.State.submit_job t.cluster job;
  (match t.pending with
  | Some p ->
      Array.iter
        (fun (task : Cluster.Workload.task) ->
          p.p_mid_added <- task.Cluster.Workload.tid :: p.p_mid_added)
        job.Cluster.Workload.tasks
  | None -> ());
  Array.iter (fun task -> t.policy.Policy.task_submitted task) job.Cluster.Workload.tasks

let finish_task t tid ~now =
  unshare t;
  (match t.pending with
  | Some p when not (List.mem tid p.p_mid_added) -> (
      match FN.task_node t.net tid with
      | Some n ->
          p.p_mid_finished <- (tid, n) :: p.p_mid_finished;
          (match Hashtbl.find_opt t.assigned tid with
          | Some mm -> p.p_mid_fin_prev <- (tid, mm) :: p.p_mid_fin_prev
          | None -> ())
      | None -> ())
  | Some _ | None -> ());
  Cluster.State.finish t.cluster tid ~now;
  t.policy.Policy.task_finished (Cluster.State.task t.cluster tid);
  Hashtbl.remove t.assigned tid

let fail_machine t m =
  unshare t;
  (match t.pending with
  | Some p -> (
      match FN.machine_node t.net m with
      | Some n -> p.p_mid_failed <- (m, n) :: p.p_mid_failed
      | None -> ())
  | None -> ());
  let victims = Cluster.State.fail_machine t.cluster m in
  t.policy.Policy.machine_failed m;
  List.iter
    (fun tid ->
      Hashtbl.remove t.assigned tid;
      t.policy.Policy.task_preempted (Cluster.State.task t.cluster tid))
    victims

let restore_machine t m =
  unshare t;
  Cluster.State.restore_machine t.cluster m;
  t.policy.Policy.machine_restored m

(* Kick a running task back to the wait queue (an operator or fuzz-harness
   event, not a solver decision). The cluster stamps the task stale, so a
   solve in flight cannot re-commit a placement for it; the task node
   itself stays live, which is exactly what the snapshot reader expects. *)
let preempt_task t tid =
  unshare t;
  Cluster.State.preempt t.cluster tid;
  Hashtbl.remove t.assigned tid;
  t.policy.Policy.task_preempted (Cluster.State.task t.cluster tid)

let set_round_observer t obs = t.observer <- obs

(* Replay one committed placement from a snapshot journal through the
   same apply path a live commit uses: cluster transition, policy
   notification (so the warm graph absorbs the reroute exactly as it did
   originally), assignment table. Each step is guarded by the same
   authoritative re-checks commit performs, so a corrupt or re-ordered
   journal degrades to skipped records rather than exceptions. *)
let replay_placement t ~now action =
  let place tid mm =
    if
      (not (Hashtbl.mem t.assigned tid))
      && Cluster.Workload.is_waiting (Cluster.State.task t.cluster tid)
      && Cluster.State.machine_is_live t.cluster mm
      && Cluster.State.free_slots_on t.cluster mm > 0
    then begin
      Cluster.State.place t.cluster tid mm ~now;
      Hashtbl.replace t.assigned tid mm;
      t.policy.Policy.task_started (Cluster.State.task t.cluster tid) mm
    end
  in
  let preempt tid =
    if Cluster.Workload.is_running (Cluster.State.task t.cluster tid) then begin
      Cluster.State.preempt t.cluster tid;
      Hashtbl.remove t.assigned tid;
      t.policy.Policy.task_preempted (Cluster.State.task t.cluster tid)
    end
  in
  match action with
  | `Start (tid, mm) -> place tid mm
  | `Migrate (tid, mm) ->
      preempt tid;
      place tid mm
  | `Preempt tid -> preempt tid

(* Reading a solver snapshot after mid-solve events: the tasks that
   existed at begin are the current task nodes minus those submitted
   mid-solve, plus those that finished mid-solve (logged with their
   begin-time node ids before the policy removed them). *)
let snapshot_tasks t p =
  let added = Hashtbl.create 16 in
  List.iter (fun tid -> Hashtbl.replace added tid ()) p.p_mid_added;
  let acc = ref p.p_mid_finished in
  FN.iter_task_nodes t.net (fun tid n ->
      if not (Hashtbl.mem added tid) then acc := (tid, n) :: !acc);
  !acc

(* Begin-time assignments of mid-solve-finished tasks, as a lookup for
   the commit's replay detection; [None] when no task finished. *)
let fin_prev_table p =
  match p.p_mid_fin_prev with
  | [] -> None
  | l ->
      let h = Hashtbl.create 16 in
      List.iter (fun (tid, mm) -> Hashtbl.replace h tid mm) l;
      Some h

(* A placement (re)stating that a task which finished mid-solve ran on
   the machine it actually occupied at round begin is a no-op replay —
   the solver simply had not seen the finish yet — not a stale
   placement. Anything else about a vanished task (a different machine,
   i.e. a would-be migration of a finished task) stays a discard. *)
let is_noop_replay fin_prev task mm =
  match fin_prev with
  | None -> false
  | Some h -> Hashtbl.find_opt h task = Some mm

(* Diff the solver's placements against the current assignment and apply
   them. Stale placements — tasks finished or preempted mid-solve, or
   aimed at machines that failed mid-solve — are discarded during
   classification, before any state is mutated; every actual place is
   then re-checked against the authoritative cluster state, so a slot
   that vanished under an absorbed event can never be double-booked. *)
let commit_diff ?fin_prev t ~now placements =
  let starts = ref [] and migrations = ref [] and preempts = ref [] in
  let discarded = ref [] in
  let replayed = ref 0 in
  let discard tid reason counter =
    discarded := (tid, reason) :: !discarded;
    Telemetry.Metrics.incr m counter
  in
  List.iter
    (fun { Placement.task; machine } ->
      match (Hashtbl.find_opt t.assigned task, machine) with
      | None, Some mm ->
          if is_noop_replay fin_prev task mm then begin
            incr replayed;
            Telemetry.Metrics.incr m m_replays
          end
          else if Cluster.State.task_stale t.cluster task then
            discard task `Stale_task m_stale_task_discards
          else if Cluster.State.machine_stale t.cluster mm then
            discard task `Stale_machine m_stale_machine_discards
          else starts := (task, mm) :: !starts
      | Some m_old, Some m_new when m_old <> m_new ->
          if Cluster.State.task_stale t.cluster task then
            discard task `Stale_task m_stale_task_discards
          else if Cluster.State.machine_stale t.cluster m_new then
            discard task `Stale_machine m_stale_machine_discards
          else migrations := (task, m_old, m_new) :: !migrations
      | Some _, Some _ -> ()
      | Some _, None ->
          if Cluster.State.task_stale t.cluster task then
            discard task `Stale_task m_stale_task_discards
          else preempts := task :: !preempts
      | None, None -> ())
    placements;
  (* Free slots first (preemptions and migration sources), then place. *)
  List.iter
    (fun tid ->
      Cluster.State.preempt t.cluster tid;
      Hashtbl.remove t.assigned tid;
      t.policy.Policy.task_preempted (Cluster.State.task t.cluster tid))
    !preempts;
  List.iter (fun (tid, _, _) -> Cluster.State.preempt t.cluster tid) !migrations;
  let placed_migrations = ref [] in
  List.iter
    (fun (tid, m_old, m_new) ->
      if Cluster.State.free_slots_on t.cluster m_new > 0 then begin
        Cluster.State.place t.cluster tid m_new ~now;
        Hashtbl.replace t.assigned tid m_new;
        t.policy.Policy.task_started (Cluster.State.task t.cluster tid) m_new;
        placed_migrations := (tid, m_old, m_new) :: !placed_migrations
      end
      else begin
        (* The slot vanished under the migration; the task was already
           preempted above and returns to the wait queue. *)
        Hashtbl.remove t.assigned tid;
        t.policy.Policy.task_preempted (Cluster.State.task t.cluster tid);
        discard tid `Capacity m_capacity_discards
      end)
    !migrations;
  let placed_starts = ref [] in
  List.iter
    (fun (tid, mm) ->
      if
        (not (Hashtbl.mem t.assigned tid))
        && Cluster.Workload.is_waiting (Cluster.State.task t.cluster tid)
        && Cluster.State.free_slots_on t.cluster mm > 0
      then begin
        Cluster.State.place t.cluster tid mm ~now;
        Hashtbl.replace t.assigned tid mm;
        t.policy.Policy.task_started (Cluster.State.task t.cluster tid) mm;
        placed_starts := (tid, mm) :: !placed_starts
      end
      else discard tid `Capacity m_capacity_discards)
    !starts;
  (!placed_starts, !placed_migrations, List.rev !preempts, List.rev !discarded, !replayed)

(* Per-round delta of the graph's cumulative change summary. Clamped at
   zero: adopting a different graph object can lower the totals. Returns
   the excess-creating part of the delta (structural + capacity + supply
   changes — cost changes alone shift reduced costs but mint no excess),
   the size heuristic for the incremental-repair path choice. *)
let record_changes t =
  let open Flowgraph.Graph in
  let s = peek_changes (FN.graph t.net) in
  let prev = t.last_changes in
  let d a b = max 0 (a - b) in
  let structural = d s.structural prev.structural in
  let capacity = d s.capacity_changes prev.capacity_changes in
  let supply = d s.supply_changes prev.supply_changes in
  Telemetry.Metrics.add m m_chg_structural structural;
  Telemetry.Metrics.add m m_chg_cost (d s.cost_changes prev.cost_changes);
  Telemetry.Metrics.add m m_chg_capacity capacity;
  Telemetry.Metrics.add m m_chg_supply supply;
  t.last_changes <- s;
  structural + capacity + supply

let begin_round ?stop t ~now =
  (match t.pending with
  | Some _ -> invalid_arg "Scheduler.begin_round: a round is already in flight"
  | None -> ());
  Telemetry.Metrics.incr m m_rounds;
  Telemetry.Trace.new_round tr;
  let ck0 = Telemetry.Clock.now_ns () in
  t.policy.Policy.refresh ~now;
  let ck1 = Telemetry.Clock.now_ns () in
  Telemetry.Trace.span tr ~phase:t_refresh ~t0:ck0 ~t1:ck1;
  Telemetry.Metrics.observe m m_refresh_ns (ck1 - ck0);
  let excess_delta = record_changes t in
  (* The round deadline covers the whole round, retry included: the stop
     predicate is armed here and shared by every solve of this round. *)
  let stop =
    let base = Option.value stop ~default:Mcmf.Solver_intf.never_stop in
    match t.config.deadline with
    | None -> base
    | Some d -> Mcmf.Solver_intf.either_stop base (Mcmf.Solver_intf.deadline_stop d)
  in
  (* Stamp the round epoch: the placements this solve will produce are
     relative to the cluster state as of this instant, and any event that
     bumps the epoch past the stamp marks its task/machine stale. *)
  Cluster.State.stamp_round t.cluster;
  (* Path choice: vouch for the O(changes) repair only when enabled and
     the round's excess-creating change delta is small. The vouch is a
     hint — the repair kernel still enforces the budget on the actual
     excess-node and augmentation counts and falls back to the full race
     on any doubt. Cost-only churn (policy refresh) is deliberately not
     counted: it mints no excess, only shortest-path re-routes. *)
  let delta_budget =
    if t.config.incremental && excess_delta <= 4 * t.config.incremental_budget
    then Some t.config.incremental_budget
    else None
  in
  let handle = Mcmf.Race.submit ~stop ?delta_budget t.race (FN.graph t.net) in
  let ck2 = Telemetry.Clock.now_ns () in
  (* Dispatch half of the solve phase; the wait half is traced by
     [commit_round], and the two sum to the round's solve attribution. *)
  Telemetry.Trace.span tr ~phase:t_solve ~t0:ck1 ~t1:ck2;
  let p =
    {
      p_handle = handle;
      p_stop = stop;
      p_epoch = Cluster.State.event_epoch t.cluster;
      p_changes = Flowgraph.Graph.peek_changes (FN.graph t.net);
      p_mid_added = [];
      p_mid_finished = [];
      p_mid_fin_prev = [];
      p_mid_failed = [];
      p_ck0 = ck0;
      p_ck1 = ck1;
      p_ck2 = ck2;
    }
  in
  t.pending <- Some p;
  p

let poll _t p = Mcmf.Race.poll p.p_handle

let solver_runtime _t p =
  (Mcmf.Race.await p.p_handle).Mcmf.Race.stats.Mcmf.Solver_intf.runtime

let commit_round t p ~now =
  (match t.pending with
  | Some q when q == p -> t.pending <- None
  | Some _ | None ->
      invalid_arg "Scheduler.commit_round: not the round in flight");
  let ckA = Telemetry.Clock.now_ns () in
  Telemetry.Metrics.observe m m_pipeline_overlap_ns (max 0 (ckA - p.p_ck2));
  let first = Mcmf.Race.await p.p_handle in
  let ckW = Telemetry.Clock.now_ns () in
  Telemetry.Metrics.observe m m_pipeline_wait_ns (ckW - ckA);
  let result, retried =
    match first.Mcmf.Race.stats.Mcmf.Solver_intf.outcome with
    | Mcmf.Solver_intf.Infeasible ->
        (* A warm start facing heavy churn can report a transient
           infeasibility; one fresh attempt (reset flow, scratch ε)
           separates that from a genuinely unroutable network. The retry
           snapshots the *current* graph, so its result is never stale. *)
        Log.warn (fun m -> m "round@%.3f infeasible; retrying from scratch" now);
        (Mcmf.Race.solve ~stop:p.p_stop ~scratch:true t.race (FN.graph t.net), true)
    | Mcmf.Solver_intf.Optimal | Mcmf.Solver_intf.Stopped -> (first, false)
  in
  let ck2 = Telemetry.Clock.now_ns () in
  Telemetry.Trace.span tr ~phase:t_solve ~t0:ckA ~t1:ck2;
  (* Solve attribution = dispatch half (begin_round) + wait/retry half. *)
  let solve_ns = (p.p_ck2 - p.p_ck1) + (ck2 - ckA) in
  Telemetry.Metrics.observe m m_solve_ns solve_ns;
  if retried then Telemetry.Metrics.incr m m_rounds_retried;
  (* Did the canonical graph or cluster state move while the solve was in
     flight? If not, the solved graph is byte-for-byte the round's
     snapshot and the synchronous commit paths apply unchanged. *)
  let interleaved =
    (not retried)
    && (p.p_mid_added <> []
       || p.p_mid_finished <> []
       || p.p_mid_failed <> []
       || Cluster.State.event_epoch t.cluster <> p.p_epoch
       || Flowgraph.Graph.peek_changes (FN.graph t.net) <> p.p_changes)
  in
  if interleaved then Telemetry.Metrics.incr m m_rounds_overlapped;
  (* Close the round: shared metric recording plus the contiguous phase
     list ([("refresh", …); ("solve", …); branch phases]) whose durations
     sum to the round's commit-side wall time by construction. *)
  let close_round ?certified ~tail r =
    let wall =
      (p.p_ck1 - p.p_ck0) + solve_ns
      + List.fold_left (fun acc (_, d) -> acc + d) 0 tail
    in
    Telemetry.Metrics.observe m m_round_ns wall;
    Telemetry.Metrics.add m m_started (List.length r.started);
    Telemetry.Metrics.add m m_migrated (List.length r.migrated);
    Telemetry.Metrics.add m m_preempted (List.length r.preempted);
    Telemetry.Metrics.set m m_unscheduled r.unscheduled;
    let r =
      { r with phase_ns = ("refresh", p.p_ck1 - p.p_ck0) :: ("solve", solve_ns) :: tail }
    in
    (match t.observer with
    | Some f -> f r (FN.graph t.net) ~certified
    | None -> ());
    r
  in
  let algorithm_runtime =
    result.Mcmf.Race.stats.Mcmf.Solver_intf.runtime
    +. (if retried then first.Mcmf.Race.stats.Mcmf.Solver_intf.runtime else 0.)
  in
  (* Split solve attribution: winner's algorithm runtime vs everything
     else the phase spent (capped losers, dispatch copies, join). *)
  let win_ns = Telemetry.Clock.ns_of_s algorithm_runtime in
  Telemetry.Metrics.observe m m_solve_win_ns win_ns;
  Telemetry.Metrics.observe m m_solve_wait_ns (max 0 (solve_ns - win_ns));
  let fin_prev = fin_prev_table p in
  let base =
    {
      winner = result.Mcmf.Race.winner;
      solver_stats = result.Mcmf.Race.stats;
      relaxation_stats = result.Mcmf.Race.relaxation_stats;
      cost_scaling_stats = result.Mcmf.Race.cost_scaling_stats;
      algorithm_runtime;
      degraded = `None;
      started = [];
      migrated = [];
      preempted = [];
      unscheduled = 0;
      discarded = [];
      replayed = 0;
      phase_ns = [];
    }
  in
  match result.Mcmf.Race.stats.Mcmf.Solver_intf.outcome with
  | Mcmf.Solver_intf.Infeasible ->
      (* Both attempts infeasible: report a failed round, keep the
         pre-round graph (Race returned it untouched) so the next round
         starts from coherent state. *)
      Telemetry.Metrics.incr m m_rounds_failed;
      Log.warn (fun m ->
          m "round@%.3f failed: infeasible after scratch retry; %d tasks left waiting" now
            (Cluster.State.waiting_count t.cluster));
      let unscheduled = Cluster.State.waiting_count t.cluster in
      let ck3 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_apply ~t0:ck2 ~t1:ck3;
      Telemetry.Metrics.observe m m_apply_ns (ck3 - ck2);
      close_round
        ~tail:[ ("apply", ck3 - ck2) ]
        { base with degraded = `Failed; unscheduled }
  | Mcmf.Solver_intf.Optimal when not interleaved ->
      let replaced = FN.graph t.net in
      (* A repair solved the canonical graph in place: already adopted. *)
      if result.Mcmf.Race.graph != replaced then begin
        FN.set_graph t.net result.Mcmf.Race.graph;
        (* Swap-on-optimal: the displaced canonical graph becomes the next
           round's scratch copy instead of garbage. *)
        Mcmf.Race.recycle t.race replaced;
        (* The adopted graph carries its own cumulative summary; re-sync
           the delta baseline so the next round doesn't misattribute. *)
        t.last_changes <- Flowgraph.Graph.peek_changes (FN.graph t.net)
      end;
      (* Snapshot the certified-optimal solution for the observer before
         the placement diff reroutes started tasks' arcs. Copy only on
         demand: the hook is a debug facility, off in production. *)
      let certified =
        match t.observer with
        | Some _ -> Some (Flowgraph.Graph.copy (FN.graph t.net))
        | None -> None
      in
      let ck3 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_adopt ~t0:ck2 ~t1:ck3;
      Telemetry.Metrics.observe m m_adopt_ns (ck3 - ck2);
      (* Delta extraction: sync the stored decomposition to the adopted
         flow and get back only the tasks whose path was rebuilt (the
         first adopted round reports everything). Tasks whose earlier
         delta commit was discarded re-enter via the retry set — their
         flow may not move again, so the decomposition's stored
         assignment is re-stated until the cluster accepts or the solver
         re-routes them. *)
      let changes =
        Placement.extract_delta ~pushed:(Mcmf.Race.iter_repair_pushes t.race) t.ws t.net
      in
      let changes =
        if Hashtbl.length t.retry = 0 then changes
        else
          Hashtbl.fold
            (fun tid () acc ->
              if List.exists (fun (tid', _) -> tid' = tid) acc then acc
              else
                match Placement.delta_lookup t.ws tid with
                | Some mo -> (tid, mo) :: acc
                | None -> acc)
            t.retry changes
      in
      Hashtbl.reset t.retry;
      let placements =
        List.rev_map (fun (task, machine) -> { Placement.task; machine }) changes
      in
      let ck4 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_extract ~t0:ck3 ~t1:ck4;
      Telemetry.Metrics.observe m m_extract_ns (ck4 - ck3);
      (* Price refine runs on the untouched optimal solution, before the
         placement diff mutates the graph (paper §6.2). *)
      Mcmf.Race.prepare t.race (FN.graph t.net);
      let ck5 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_prepare ~t0:ck4 ~t1:ck5;
      Telemetry.Metrics.observe m m_prepare_ns (ck5 - ck4);
      let started, migrated, preempted, discarded, replayed =
        commit_diff t ~now placements
      in
      List.iter (fun (tid, _) -> Hashtbl.replace t.retry tid ()) discarded;
      let unscheduled = Cluster.State.waiting_count t.cluster in
      Log.debug (fun m ->
          m "round@%.3f: %s won in %.4fs; %d started, %d migrated, %d preempted, %d waiting"
            now
            (match result.Mcmf.Race.winner with
            | Mcmf.Race.Relaxation -> "relaxation"
            | Mcmf.Race.Cost_scaling -> "cost scaling"
            | Mcmf.Race.Repair -> "incremental repair")
            base.algorithm_runtime (List.length started) (List.length migrated)
            (List.length preempted) unscheduled);
      let ck6 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_apply ~t0:ck5 ~t1:ck6;
      Telemetry.Metrics.observe m m_apply_ns (ck6 - ck5);
      close_round ?certified
        ~tail:
          [
            ("adopt", ck3 - ck2);
            ("extract", ck4 - ck3);
            ("prepare", ck5 - ck4);
            ("apply", ck6 - ck5);
          ]
        {
          base with
          degraded = (if retried then `Infeasible_retry else `None);
          started;
          migrated;
          preempted;
          unscheduled;
          discarded;
          replayed;
        }
  | (Mcmf.Solver_intf.Stopped | Mcmf.Solver_intf.Optimal) as outcome ->
      (* Best effort: the solved graph is not adopted. Either the solve was
         cut short (its pseudoflow is only read), or the canonical graph
         absorbed events while it ran (adopting would silently undo them).
         The canonical graph stays the next round's warm start, with no
         price refine: its flow was never certified optimal. When events
         interleaved, the solved graph's node ids describe the
         begin-of-round network, so it is read through the mid-solve log.
         A cut-short solve is no grounds for migrations or preemptions: it
         only starts tasks that are not running. *)
      let stopped = outcome = Mcmf.Solver_intf.Stopped in
      if stopped then Telemetry.Metrics.incr m m_rounds_partial;
      let solved =
        if stopped then result.Mcmf.Race.partial else Some result.Mcmf.Race.graph
      in
      let (started, migrated, preempted, discarded, replayed), ext_end =
        match solved with
        | None -> (([], [], [], [], 0), ck2)
        | Some g ->
            let placements =
              if interleaved then
                Placement.extract_snapshot ~workspace:t.ws ~tasks:(snapshot_tasks t p)
                  ~failed:p.p_mid_failed t.net g
              else Placement.extract_snapshot ~workspace:t.ws t.net g
            in
            let placements =
              if stopped then
                List.filter
                  (fun a -> not (Hashtbl.mem t.assigned a.Placement.task))
                  placements
              else placements
            in
            let ext_end = Telemetry.Clock.now_ns () in
            let committed = commit_diff ?fin_prev t ~now placements in
            if g != FN.graph t.net then Mcmf.Race.recycle t.race g;
            (committed, ext_end)
      in
      List.iter (fun (tid, _) -> Hashtbl.replace t.retry tid ()) discarded;
      let unscheduled = Cluster.State.waiting_count t.cluster in
      Log.debug (fun m ->
          m
            "round@%.3f best effort (%s): %d started, %d migrated, %d preempted, %d \
             discarded, %d waiting"
            now
            (if stopped then "stopped" else "interleaved")
            (List.length started) (List.length migrated) (List.length preempted)
            (List.length discarded) unscheduled);
      let ck3 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_extract ~t0:ck2 ~t1:ext_end;
      Telemetry.Trace.span tr ~phase:t_apply ~t0:ext_end ~t1:ck3;
      Telemetry.Metrics.observe m m_extract_ns (ext_end - ck2);
      Telemetry.Metrics.observe m m_apply_ns (ck3 - ext_end);
      close_round
        ~tail:[ ("extract", ext_end - ck2); ("apply", ck3 - ext_end) ]
        {
          base with
          degraded = (if stopped then `Partial else `None);
          started;
          migrated;
          preempted;
          unscheduled;
          discarded;
          replayed;
        }

(* A synchronous round is exactly the pipelined pair with nothing in
   between: no event can interleave, so [commit_round] always takes the
   fast (non-reconciling) paths and behaves as the pre-pipelining
   scheduler did. *)
let schedule ?stop t ~now = commit_round t (begin_round ?stop t ~now) ~now

let assignments t = t.assigned

(* Debug/oracle access to the delta decomposition: what the workspace
   believes the last adopted flow assigned, or [None] before the first
   adopted round (or after a failed sync). *)
let decomposition t =
  if Placement.delta_synced t.ws then Some (Placement.delta_assignments t.ws)
  else None
