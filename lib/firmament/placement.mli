(** Task-placement extraction (paper §6.3, Listing 1), by one of two
    paths: an exact decomposition of an adopted optimal flow
    ({!extract_delta}, with {!extract} as the same sync from an empty
    workspace), or a best-effort, capacity-valid walk over a flow the
    scheduler will not adopt ({!extract_snapshot}).

    Firmament allows arbitrary aggregators between tasks and machines,
    so paths can be longer than in Quincy; this generalizes Quincy's
    extraction to a flow decomposition: each task's unit of flow is
    assigned one concrete sink path, and the penultimate node (machine
    or unscheduled aggregator) decides its placement. When several
    tasks' units merge at an aggregator the attribution between them is
    ambiguous; any decomposition of the same flow yields the same
    scheduled-task set and the same per-machine task counts.

    Exact extraction is {e incremental}: a {!workspace} retains the previous
    decomposition, and {!extract_delta} re-walks only tasks whose stored
    path crosses an arc whose flow or identity changed since the last
    sync (per-arc generation stamps, {!Flowgraph.Graph.arc_generation}).
    It finds those arcs in the graph's dirty journal and the repair's
    push log when they cover everything since the last sync, and by a
    scan of every arc slot otherwise. A full {!extract} is the same
    machinery run from an empty workspace.
    All hot-path state lives in preallocated int arrays (epoch-stamped
    marks, an {!Int_table} for task slots) — steady-state syncs allocate
    only the returned change list. *)

type assignment = {
  task : Cluster.Types.task_id;
  machine : Cluster.Types.machine_id option;  (** [None] = left unscheduled *)
}

(** A reusable extraction state: the delta decomposition plus scratch
    budgets for the best-effort walk. One per scheduler; safe to share
    between {!extract_delta} and {!extract_snapshot} (the walk uses
    separate epoch-stamped budgets and never disturbs the delta state).
    Not thread-safe. *)
type workspace

(** [node_hint]/[arc_hint] (the {!Flow_network.create} topology hints)
    pre-size the tracked-task and per-arc arrays so the first adopted
    round builds the decomposition without growth doublings. *)
val create_workspace : ?node_hint:int -> ?arc_hint:int -> unit -> workspace

(** [extract ?workspace net] reads the current (feasible) flow in [net]
    and returns one assignment per task node, sorted by task id. Resets
    [workspace] (if given) and rebuilds the decomposition from scratch,
    leaving it synced to [net]'s current flow.
    @raise Failure if the flow is infeasible (non-zero excess) or
    violates the structural invariants extraction relies on (task flow
    reaching the sink from a non-machine, non-unscheduled node; paths
    deeper than the policy DAG allows). *)
val extract : ?workspace:workspace -> Flow_network.t -> assignment list

(** [extract_delta ~pushed ws net] incrementally syncs [ws] to [net]'s
    current flow and returns the tasks whose stored path was rebuilt,
    with their new assignment — a superset of the tasks whose assignment
    actually changed (attribution churn between tasks sharing aggregators
    can re-route a task onto the machine it already occupied; callers
    must treat the list as idempotent updates, not edges). Tasks that
    left the network are dropped silently. On the first call (or after a
    failed sync) this is a full rebuild reporting every task.

    Finding the arcs that changed since the last sync costs O(changes)
    rather than a scan of every arc slot when [net]'s graph is the one
    synced last, its dirty journal ({!Flowgraph.Graph.iter_journal_since})
    is intact, and [pushed g ~since f] accounts for every solver push
    since: it must apply [f] to each arc pushed on since [g]'s push count
    was [since] and return [true], or return [false] without calling [f]
    ({!Mcmf.Race.iter_repair_pushes} does this for a repaired round). The workspace consumes the journal:
    each call clears it.
    @raise Failure as {!extract}. *)
val extract_delta :
  pushed:(Flowgraph.Graph.t -> since:int -> (Flowgraph.Graph.arc -> unit) -> bool) ->
  workspace ->
  Flow_network.t ->
  (Cluster.Types.task_id * Cluster.Types.machine_id option) list

(** [delta_assignments ws] is the full decomposition currently stored in
    [ws], sorted by task id — what {!extract} would have returned at the
    last successful sync. Meaningless while {!delta_synced} is false. *)
val delta_assignments : workspace -> assignment list

(** [delta_lookup ws tid] is [None] if [tid] is untracked, otherwise
    [Some machine_opt] — its stored assignment. *)
val delta_lookup :
  workspace -> Cluster.Types.task_id -> Cluster.Types.machine_id option option

(** [delta_unscheduled ws] is the number of tracked tasks currently
    decomposed through an unscheduled aggregator. *)
val delta_unscheduled : workspace -> int

(** [delta_synced ws] is true when the last sync completed successfully
    (the stored decomposition matches some graph's flow exactly). *)
val delta_synced : workspace -> bool

(** [extract_snapshot ?workspace ?tasks ?failed net g] reads best-effort
    placements out of a flow [g] the scheduler will not adopt: a
    deadline-stopped solver's pseudoflow (paper §5.1, Fig. 10), or an
    optimal solve overtaken by cluster events absorbed while it ran. [g]
    must share node ids with [net] (a structure-preserving copy of it,
    possibly taken before later changes to [net]).

    Each task's unit of flow is walked toward the sink with backtracking
    over a per-arc flow budget: an aborted branch refunds what it
    consumed, so a dead-end probe never leaks flow away from tasks sharing
    a path prefix. Reaching a machine also claims a unit of its sink arc
    in [g], so no machine is attributed more tasks than the flow it
    forwards to the sink: placements are capacity-valid even on a
    pseudoflow with excess parked mid-graph. Tasks whose flow is unrouted
    or parks at an unscheduled aggregator report [None]. On an optimal
    flow this is an exact decomposition; on a pseudoflow it is best-effort.
    It never fails, but units merging at an aggregator may be attributed
    to either upstream task.

    Nodes are read through [net]'s tables and the walk starts from [net]'s
    task nodes, unless the caller knows better:
    {ul
    {- [tasks] lists the tasks to walk with their node ids {e in [g]}
       (for a snapshot: the tasks that existed when it was taken);}
    {- [failed] lists machines removed from [net] after [g] was taken,
       with their node ids in [g]. These nodes read as those machines
       even if [net] has since recycled the ids.}}
    Budgets live in [workspace] (a fresh one if omitted) and do not
    disturb its delta state. *)
val extract_snapshot :
  ?workspace:workspace ->
  ?tasks:(Cluster.Types.task_id * Flowgraph.Graph.node) list ->
  ?failed:(Cluster.Types.machine_id * Flowgraph.Graph.node) list ->
  Flow_network.t ->
  Flowgraph.Graph.t ->
  assignment list
