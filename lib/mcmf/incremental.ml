module G = Flowgraph.Graph

(* O(changes) flow repair (paper §5: incremental min-cost max-flow).

   Input: a graph carrying the previous round's adopted optimal flow and
   its (scaled) potentials, mutated by the round's change set — node
   adds/removals, capacity cuts, cost changes, supply changes. The graph
   kernel keeps the pseudoflow consistent under those mutations
   (removals credit flow back as excesses, capacity cuts push overflow
   back), so what remains is a pseudoflow that is {e almost} optimal:
   reduced-cost violations and excesses appear only where the round
   touched the graph.

   Repair restores optimality locally:
   1. saturate every residual arc whose scaled reduced cost went
      negative (re-establishes dual feasibility; creates excesses only
      at endpoints of changed arcs);
   2. collect the excess nodes — if there are more than [budget], the
      delta was not small and the caller should run the full race;
   3. route each excess to a deficit with potential-guided Dijkstra
      over scaled reduced costs (all nonnegative after step 1), updating
      potentials only on the nodes the search actually settled:
      p(v) += dt − dist(v) for settled v keeps every reduced cost
      nonnegative while touching O(dirty region) nodes, unlike the full
      solvers' O(n) relabel;
   4. certify: zero excess everywhere and {!Price_refine.certified} at
      the caller's scale. Any failure returns the reason and the caller
      falls back to the full race.

   The kernel works on [g] itself — the canonical graph, not a copy.
   Every push and potential write goes into an undo log first, so a
   give-up replays the log backwards and hands the fallback the graph
   exactly as it came in; the same log names the arcs a successful
   repair moved, for delta placement extraction. *)

type reason = Oversized | No_path | Not_certified | Stopped_mid_repair

let reason_name = function
  | Oversized -> "oversized"
  | No_path -> "no_path"
  | Not_certified -> "not_certified"
  | Stopped_mid_repair -> "stopped"

type outcome = Repaired of Solver_intf.stats | Gave_up of reason

(* Persistent scratch: Ssp's Dijkstra arrays plus a [touched] stack of the
   nodes settled this augmentation (the only ones whose potentials move)
   and a [sources] stack of the round's excess nodes (collected once —
   augmentations only shrink excesses, never mint new ones).

   The undo log holds triples: a push as [(a, d, prev)] with [prev] the
   arc's active predecessor before it (see {!G.undo_push}), a potential
   write as [(-1 - v, old, 0)]. It describes the last repair, on
   [log_graph], which moved that graph's {!G.push_count} from
   [log_start] to [log_end]; [log_live] says the changes are still in
   the graph (the repair succeeded and was not undone since). *)
type workspace = {
  mutable nbound : int;
  mutable dist : int array;
  mutable parent : int array;
  mutable seen : int array; (* = epoch <=> dist/parent valid this round *)
  mutable settled : int array; (* = epoch <=> settled this round *)
  mutable epoch : int;
  mutable touched : int array;
  mutable sources : int array;
  heap : Heap.t;
  mutable log : int array;
  mutable log_len : int;
  mutable log_graph : G.t option;
  mutable log_start : int;
  mutable log_end : int;
  mutable log_live : bool;
}

let create_workspace () =
  {
    nbound = 0;
    dist = [||];
    parent = [||];
    seen = [||];
    settled = [||];
    epoch = 0;
    touched = [||];
    sources = [||];
    heap = Heap.create ~capacity:16;
    log = Array.make 192 0;
    log_len = 0;
    log_graph = None;
    log_start = 0;
    log_end = 0;
    log_live = false;
  }

let log3 ws x y z =
  let i = ws.log_len in
  if i + 3 > Array.length ws.log then begin
    let a = Array.make (2 * Array.length ws.log) 0 in
    Array.blit ws.log 0 a 0 i;
    ws.log <- a
  end;
  let log = ws.log in
  Array.unsafe_set log i x;
  Array.unsafe_set log (i + 1) y;
  Array.unsafe_set log (i + 2) z;
  ws.log_len <- i + 3

(* The kernel's only two writes to the graph. A push is logged once it
   happened, so a rollback never undoes one that raised. *)
let push ws g a d =
  if d > 0 then begin
    let prev = G.prev_active g a in
    G.push g a d;
    log3 ws a d prev
  end

let set_potential ws g v p =
  log3 ws (-1 - v) (G.potential g v) 0;
  G.set_potential g v p

let rollback ws g =
  let log = ws.log in
  let i = ref (ws.log_len - 3) in
  while !i >= 0 do
    let x = log.(!i) in
    if x >= 0 then G.undo_push g x log.(!i + 1) ~prev:log.(!i + 2)
    else G.set_potential g (-1 - x) log.(!i + 1);
    i := !i - 3
  done;
  ws.log_len <- 0;
  ws.log_live <- false

let holds_repair ws g =
  ws.log_live
  && (match ws.log_graph with Some lg -> lg == g | None -> false)
  && G.push_count g = ws.log_end

let undo ws g =
  if not (holds_repair ws g) then
    invalid_arg "Incremental.undo: the graph does not hold the last repair";
  rollback ws g

let iter_pushes ws g ~since f =
  if holds_repair ws g && ws.log_start = since then begin
    let log = ws.log in
    let i = ref 0 in
    while !i < ws.log_len do
      let x = log.(!i) in
      if x >= 0 then f x;
      i := !i + 3
    done;
    true
  end
  else false

let reserve ws bound =
  if bound > ws.nbound then begin
    let n = ref (max 64 ws.nbound) in
    while !n < bound do
      n := !n * 2
    done;
    let n = !n in
    ws.dist <- Array.make n 0;
    ws.parent <- Array.make n (-1);
    ws.seen <- Array.make n 0;
    ws.settled <- Array.make n 0;
    ws.touched <- Array.make n 0;
    ws.sources <- Array.make n 0;
    ws.nbound <- n
  end

let m = Telemetry.Metrics.global ()

let m_repairs =
  Telemetry.Metrics.counter m
    ~help:"incremental repairs that restored a certified optimal flow"
    "mcmf_incremental_repairs_total"

let m_giveup_oversized =
  Telemetry.Metrics.counter m
    ~help:"incremental repairs abandoned: change set larger than the budget"
    "mcmf_incremental_giveup_oversized_total"

let m_giveup_no_path =
  Telemetry.Metrics.counter m
    ~help:"incremental repairs abandoned: an excess could not reach a deficit"
    "mcmf_incremental_giveup_no_path_total"

let m_giveup_not_certified =
  Telemetry.Metrics.counter m
    ~help:"incremental repairs abandoned: price-refine certification failed"
    "mcmf_incremental_giveup_not_certified_total"

let m_giveup_stopped =
  Telemetry.Metrics.counter m
    ~help:"incremental repairs abandoned: stop callback fired mid-repair"
    "mcmf_incremental_giveup_stopped_total"

let m_repair_ns =
  Telemetry.Metrics.histogram m
    ~help:"wall time of successful incremental repairs (ns)"
    "mcmf_incremental_repair_ns"

let m_repair_augs =
  Telemetry.Metrics.histogram m
    ~help:"shortest-path augmentations per successful incremental repair"
    "mcmf_incremental_repair_augs"

let m_repair_touched =
  Telemetry.Metrics.histogram m
    ~help:"nodes settled (dirty-region size) per successful incremental repair"
    "mcmf_incremental_repair_touched"

let giveup_counter = function
  | Oversized -> m_giveup_oversized
  | No_path -> m_giveup_no_path
  | Not_certified -> m_giveup_not_certified
  | Stopped_mid_repair -> m_giveup_stopped

(* Saturate residual arcs with negative {e scaled} reduced cost.
   Establish-optimality at the cost-scaling scale: potentials carried
   over from the previous round live in scaled units, so feasibility
   must be judged there too. Returns the number of arcs saturated. *)
let saturate ~scale ws g =
  let n = ref 0 in
  G.iter_arcs g (fun a0 ->
      let u = G.src g a0 and v = G.dst g a0 in
      let rc = (G.cost g a0 * scale) - G.potential g u + G.potential g v in
      if rc < 0 then begin
        if G.rescap g a0 > 0 then begin
          push ws g a0 (G.rescap g a0);
          incr n
        end
      end
      else if rc > 0 then begin
        let a1 = G.rev a0 in
        if G.rescap g a1 > 0 then begin
          push ws g a1 (G.rescap g a1);
          incr n
        end
      end);
  !n

exception Give_up of reason

let repair ?(stop = Solver_intf.never_stop) ~scale ~budget ?workspace g =
  let t0 = Telemetry.Clock.now_ns () in
  let ws = match workspace with Some w -> w | None -> create_workspace () in
  let bound = max 1 (G.node_bound g) in
  reserve ws bound;
  let iterations = ref 0 in
  let pushes = ref 0 in
  let relabels = ref 0 in
  ws.log_len <- 0;
  ws.log_live <- false;
  ws.log_graph <- Some g;
  ws.log_start <- G.push_count g;
  try
    ignore (saturate ~scale ws g);
    (* One excess sweep: augmentations only move flow from an excess to a
       deficit, so no node turns into a source later — the list is
       complete for the whole repair. *)
    let sources = ws.sources in
    let nsrc = ref 0 in
    let deficit_exists = ref false in
    G.iter_nodes g (fun v ->
        let e = G.excess g v in
        if e > 0 then begin
          if !nsrc >= budget then raise (Give_up Oversized);
          sources.(!nsrc) <- v;
          incr nsrc
        end
        else if e < 0 then deficit_exists := true);
    if !nsrc > 0 && not !deficit_exists then raise (Give_up No_path);
    let dist = ws.dist in
    let parent = ws.parent in
    let seen = ws.seen in
    let settled = ws.settled in
    let touched = ws.touched in
    let heap = ws.heap in
    let remaining = ref true in
    while !remaining do
      if stop () then raise (Give_up Stopped_mid_repair);
      ws.epoch <- ws.epoch + 1;
      let epoch = ws.epoch in
      Heap.clear heap;
      let live = ref 0 in
      for i = 0 to !nsrc - 1 do
        let s = sources.(i) in
        if G.node_is_live g s && G.excess g s > 0 then begin
          incr live;
          dist.(s) <- 0;
          parent.(s) <- -1;
          seen.(s) <- epoch;
          Heap.insert heap s 0
        end
      done;
      if !live = 0 then remaining := false
      else begin
        incr iterations;
        if !iterations > budget then raise (Give_up Oversized);
        (* Multi-source Dijkstra over scaled reduced costs, stopping at
           the first deficit. Every settled node is recorded in
           [touched] — the potential update below walks only those. *)
        let tlen = ref 0 in
        let target = ref (-1) in
        while !target < 0 && not (Heap.is_empty heap) do
          let u, du = Heap.pop_min heap in
          if settled.(u) <> epoch then begin
            settled.(u) <- epoch;
            touched.(!tlen) <- u;
            incr tlen;
            if G.excess g u < 0 then target := u
            else begin
              let it = ref (G.first_active g u) in
              while !it >= 0 do
                let a = !it in
                let v = G.dst g a in
                if settled.(v) <> epoch then begin
                  let rc =
                    (G.cost g a * scale) - G.potential g u + G.potential g v
                  in
                  let dv = du + rc in
                  if seen.(v) <> epoch || dv < dist.(v) then begin
                    dist.(v) <- dv;
                    parent.(v) <- a;
                    seen.(v) <- epoch;
                    Heap.insert heap v dv
                  end
                end;
                it := G.next_active g a
              done
            end
          end
        done;
        if !target < 0 then raise (Give_up No_path);
        let t = !target in
        let dt = dist.(t) in
        (* Local potential update: p(v) += dt − dist(v) for settled v
           only. Settled→settled arcs keep rc ≥ 0 by Dijkstra
           optimality (path arcs become rc = 0); settled→unsettled
           arcs gain rc ≥ 0 because any unsettled label is ≥ dt; arcs
           out of unsettled nodes only gain reduced cost. *)
        relabels := !relabels + !tlen;
        for i = 0 to !tlen - 1 do
          let v = touched.(i) in
          set_potential ws g v (G.potential g v + (dt - dist.(v)))
        done;
        let rec root v = if parent.(v) < 0 then v else root (G.src g parent.(v)) in
        let s = root t in
        let rec bottleneck v acc =
          if parent.(v) < 0 then acc
          else bottleneck (G.src g parent.(v)) (min acc (G.rescap g parent.(v)))
        in
        let amount = min (G.excess g s) (min (- G.excess g t) (bottleneck t max_int)) in
        let rec augment v =
          if parent.(v) >= 0 then begin
            push ws g parent.(v) amount;
            incr pushes;
            augment (G.src g parent.(v))
          end
        in
        augment t
      end
    done;
    (* Certify before claiming optimality: every excess must be gone
       (deficits cancel exactly when the sources drain — verified
       directly) and the potentials must prove it. *)
    let clean = ref true in
    (try G.iter_nodes g (fun v -> if G.excess g v <> 0 then (clean := false; raise Exit))
     with Exit -> ());
    if not (!clean && Price_refine.certified ~scale g) then
      raise (Give_up Not_certified);
    ws.log_end <- G.push_count g;
    ws.log_live <- true;
    let dt_ns = Telemetry.Clock.now_ns () - t0 in
    Telemetry.Metrics.incr m m_repairs;
    Telemetry.Metrics.observe m m_repair_ns dt_ns;
    Telemetry.Metrics.observe m m_repair_augs !iterations;
    Telemetry.Metrics.observe m m_repair_touched !relabels;
    Repaired
      (Solver_intf.stats ~iterations:!iterations ~pushes:!pushes
         ~relabels:!relabels Solver_intf.Optimal
         (Telemetry.Clock.s_of_ns dt_ns))
  with
  | Give_up r ->
      rollback ws g;
      Telemetry.Metrics.incr m (giveup_counter r);
      Gave_up r
  | e ->
      rollback ws g;
      raise e
