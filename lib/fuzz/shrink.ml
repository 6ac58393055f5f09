(* Delta debugging (Zeller's ddmin) on event lists. The harness's event
   semantics are total under any subsequence (index selectors reduce
   modulo the live population; impossible events are no-ops), so every
   candidate the shrinker proposes is a valid trace — the predicate only
   decides whether it still fails. *)

let split_chunks lst n =
  let len = List.length lst in
  let base = len / n and extra = len mod n in
  let rec take k lst acc =
    if k = 0 then (List.rev acc, lst)
    else
      match lst with
      | [] -> (List.rev acc, [])
      | x :: tl -> take (k - 1) tl (x :: acc)
  in
  let rec go i lst acc =
    if i = n then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let chunk, rest = take size lst [] in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 lst []

let remove_chunk chunks i =
  List.concat (List.filteri (fun j _ -> j <> i) chunks)

let rec ddmin ~fails events n =
  let len = List.length events in
  if len <= 1 then events
  else begin
    let n = min n len in
    let chunks = split_chunks events n in
    (* Try each complement (the trace minus one chunk), largest first. *)
    let rec try_complements i =
      if i >= List.length chunks then None
      else
        let candidate = remove_chunk chunks i in
        if candidate <> [] && fails candidate then Some candidate
        else try_complements (i + 1)
    in
    match try_complements 0 with
    | Some smaller -> ddmin ~fails smaller (max (n - 1) 2)
    | None -> if n < len then ddmin ~fails events (min len (2 * n)) else events
  end

let replace_at lst i v = List.mapi (fun j x -> if j = i then v else x) lst

let simplify_pass ~fails ~simplify events =
  let changed = ref false in
  let events = ref events in
  List.iteri
    (fun i _ ->
      let ev = List.nth !events i in
      let rec try_candidates = function
        | [] -> ()
        | c :: rest ->
            let candidate = replace_at !events i c in
            if fails candidate then begin
              events := candidate;
              changed := true
            end
            else try_candidates rest
      in
      try_candidates (simplify ev))
    !events;
  (!events, !changed)

let minimize ~fails ?(simplify = fun _ -> []) events =
  if not (fails events) then events
  else begin
    let minimal = ddmin ~fails events 2 in
    (* Per-event simplification to a fixpoint (bounded: each pass must
       strictly simplify at least one event, and candidates are finite). *)
    let rec fixpoint events budget =
      if budget = 0 then events
      else
        let events', changed = simplify_pass ~fails ~simplify events in
        if changed then fixpoint events' (budget - 1) else events'
    in
    fixpoint minimal 8
  end

let simplify_event (ev : Dcsim.Churn.event) : Dcsim.Churn.event list =
  match ev with
  | Dcsim.Churn.Round { polls } when polls > 0 -> [ Dcsim.Churn.Round { polls = 0 } ]
  | Dcsim.Churn.Begin_round { polls } when polls > 0 ->
      [ Dcsim.Churn.Begin_round { polls = 0 } ]
  | Dcsim.Churn.Submit ({ tasks; _ } as s) when tasks > 1 ->
      [ Dcsim.Churn.Submit { s with tasks = 1 } ]
  | Dcsim.Churn.Perturb_costs ({ arcs; _ } as p) when arcs > 1 ->
      [ Dcsim.Churn.Perturb_costs { p with arcs = 1 } ]
  | _ -> []
