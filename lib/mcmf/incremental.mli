(** O(changes) incremental flow repair (paper §5).

    Takes a graph carrying the previous round's adopted {e optimal} flow
    and potentials, already mutated by the round's change set, and
    restores an optimal solution with work proportional to the dirty
    region: saturate reduced-cost violations, then route the resulting
    excesses to deficits with potential-guided Dijkstra whose potential
    update touches only settled nodes. The result is certified
    ({!Price_refine.certified} at the caller's scale + zero excess) —
    any doubt returns {!Gave_up} and the caller runs the full race.

    The repair runs on the caller's graph itself. Every push and
    potential write is first recorded in an undo log in the
    {!workspace}; a give-up replays it backwards before returning, so
    the graph the full race then copies is exactly the one that came
    in. *)

(** Why a repair was abandoned (exported per-reason via telemetry
    [mcmf_incremental_giveup_*_total]). *)
type reason =
  | Oversized  (** more excess nodes or augmentations than [budget] *)
  | No_path  (** an excess could not reach any deficit *)
  | Not_certified  (** repair finished but certification failed *)
  | Stopped_mid_repair  (** the stop callback fired *)

val reason_name : reason -> string

type outcome = Repaired of Solver_intf.stats | Gave_up of reason

(** Persistent Dijkstra + bookkeeping scratch, epoch-stamped. *)
type workspace

val create_workspace : unit -> workspace

(** [reserve ws bound] pre-sizes the workspace for graphs of node bound
    [bound] so first use doesn't grow mid-round. *)
val reserve : workspace -> int -> unit

(** [repair ~scale ~budget g] mutates [g] (flows {e and} potentials, in
    cost scaling's scaled units at [scale]) toward a certified optimal
    solution. [budget] caps both the number of excess nodes and the
    number of augmentations before giving up [Oversized].

    {b Undo guarantee.} On [Gave_up] (and if the kernel raises) [g] is
    restored exactly: every flow, excess and potential, and every node's
    active-arc list, membership and order alike. On [Repaired] the
    workspace keeps the log, for {!undo} and {!iter_pushes}, until its
    next repair. *)
val repair :
  ?stop:Solver_intf.stop ->
  scale:int ->
  budget:int ->
  ?workspace:workspace ->
  Flowgraph.Graph.t ->
  outcome

(** [undo ws g] takes the last successful repair back out of [g]: the
    graph returns exactly to its state before that repair, as on a
    give-up.
    @raise Invalid_argument unless [g] is the graph that repair ran on,
    it succeeded, and [g] has seen no {!Flowgraph.Graph.push} since. *)
val undo : workspace -> Flowgraph.Graph.t -> unit

(** [iter_pushes ws g ~since f] applies [f] to every residual arc the
    last repair pushed on and returns [true] — provided that repair ran
    on [g], started when [g]'s {!Flowgraph.Graph.push_count} was [since],
    succeeded and is still in [g] with no push since. Then those are all
    the solver pushes [g] has seen since count [since]. Otherwise it
    returns [false] without calling [f]. *)
val iter_pushes :
  workspace -> Flowgraph.Graph.t -> since:int -> (Flowgraph.Graph.arc -> unit) -> bool
