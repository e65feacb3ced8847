type result = {
  nets : Domain.t array;
  iterations : int;
  block_evaluations : int;
}

type strategy = Chaotic | Scheduled | Worklist | Fused

exception Nonmonotonic of string

let strategy_name = function
  | Chaotic -> "chaotic"
  | Scheduled -> "scheduled"
  | Worklist -> "worklist"
  | Fused -> "fused"

let strategy_of_string = function
  | "chaotic" -> Some Chaotic
  | "scheduled" -> Some Scheduled
  | "worklist" -> Some Worklist
  | "fused" -> Some Fused
  | _ -> None

(* Preallocated per-block scratch, one allocation per graph instead of
   one per application. Block functions must not retain their input
   array; every cell and wrapper in this codebase copies what it
   keeps. Probed whole-block applications additionally need, per block,
   a step closure that applies it and leaves its outputs in a result
   buffer — built once, on the first probed application, so a guarding
   probe can re-run a block without a per-application closure and
   unprobed runs never pay for them. *)
type probed = {
  p_res : Domain.t array array;
  p_step : Probe.step array;
  p_iota : int array;  (* slot p of a result buffer is p *)
}

type buffers = {
  b_in : Domain.t array array;
  b_out : Domain.t array array;
  b_probed : probed Lazy.t;
}

let outputs_scratch (c : Graph.compiled) =
  Array.map
    (fun (_, _, outs) -> Array.make (Array.length outs) Domain.Bottom)
    c.Graph.c_blocks

let make_buffers (c : Graph.compiled) =
  let b_in =
    Array.map
      (fun (_, ins, _) -> Array.make (Array.length ins) Domain.Bottom)
      c.Graph.c_blocks
  in
  let probed () =
    let p_res = outputs_scratch c in
    let p_step =
      Array.mapi
        (fun bi (block, in_nets, _) ->
          let buf = b_in.(bi) and res = p_res.(bi) in
          fun nets ->
            for p = 0 to Array.length in_nets - 1 do
              buf.(p) <- nets.(in_nets.(p))
            done;
            let outs = Block.apply block buf in
            for p = 0 to Array.length res - 1 do
              res.(p) <- outs.(p)
            done)
        c.Graph.c_blocks
    in
    { p_res;
      p_step;
      p_iota =
        Array.init
          (Array.fold_left (fun m r -> max m (Array.length r)) 0 p_res)
          Fun.id }
  in
  { b_in;
    b_out = outputs_scratch c;
    b_probed = lazy (probed ()) }

(* Apply block [bi] once, lub-merging its outputs into [nets]. Returns
   true when some output net changed. A lub conflict means the block
   retracted or rewrote a defined value: not monotone — unless the
   probe contains it, freezing the block at the nets' current values. *)
let apply_block ?probe (c : Graph.compiled) ~bufs nets bi =
  let block, in_nets, out_nets = c.Graph.c_blocks.(bi) in
  let outs =
    match probe with
    | None ->
        let buf = bufs.b_in.(bi) in
        for p = 0 to Array.length in_nets - 1 do
          buf.(p) <- nets.(in_nets.(p))
        done;
        Block.apply block buf
    | Some p ->
        let pb = Lazy.force bufs.b_probed in
        let res = pb.p_res.(bi) in
        p.Probe.enter bi;
        Probe.run p bi pb.p_step.(bi) nets res pb.p_iota;
        res
  in
  let changed = ref false and outcome = ref Probe.Merged in
  (try
     for port = 0 to Array.length out_nets - 1 do
       let net = out_nets.(port) in
       match Domain.lub nets.(net) outs.(port) with
       | merged ->
           if not (Domain.equal merged nets.(net)) then begin
             nets.(net) <- merged;
             changed := true;
             match probe with Some p -> p.Probe.write net merged | None -> ()
           end
       | exception Domain.Inconsistent msg -> (
           let detail =
             Printf.sprintf "block %s retracted output %d: %s" block.Block.name
               port msg
           in
           match probe with
           | Some p when p.Probe.retract bi nets out_nets detail ->
               outcome := Probe.Retracted;
               raise_notrace Exit
           | _ -> raise (Nonmonotonic detail))
     done
   with Exit -> (* retraction contained: nets keep their values *) ());
  (match probe with Some p -> p.Probe.leave bi nets !outcome | None -> ());
  !changed

(* ------------------------------------------------------------------ *)
(* Chaotic iteration: the reference oracle. Re-evaluates every block on
   every sweep until a sweep changes nothing.                           *)
(* ------------------------------------------------------------------ *)

let eval_chaotic ?probe c nets ~bufs ~order =
  let evaluations = ref 0 in
  let sweeps = ref 0 in
  (* Height of the product domain = number of nets; one extra sweep
     detects stability, so n_nets + 2 sweeps suffice for monotone blocks. *)
  let max_sweeps = c.Graph.n_nets + 2 in
  let changed = ref true in
  while !changed do
    if !sweeps > max_sweeps then
      raise (Nonmonotonic "fixpoint exceeded the monotone iteration bound");
    changed := false;
    incr sweeps;
    Array.iter
      (fun bi ->
        incr evaluations;
        if apply_block ?probe c ~bufs nets bi then changed := true)
      order
  done;
  (!sweeps, !evaluations)

(* ------------------------------------------------------------------ *)
(* Static schedule: acyclic blocks once, in topological order; cyclic
   SCCs iterate locally until stable (bounded by the SCC's net count).  *)
(* ------------------------------------------------------------------ *)

(* Shared by Scheduled and the fused plan's SCC fallback. *)
let iterate_scc ?probe c nets ~bufs ~members ~bound ~evaluations =
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    if !rounds > bound then
      raise
        (Nonmonotonic "cyclic component exceeded the monotone iteration bound");
    changed := false;
    incr rounds;
    Array.iter
      (fun bi ->
        incr evaluations;
        if apply_block ?probe c ~bufs nets bi then changed := true)
      members
  done;
  !rounds

let eval_scheduled ?probe c nets ~bufs ~schedule =
  let evaluations = ref 0 in
  let max_rounds = ref 1 in
  List.iter
    (fun group ->
      match group with
      | Schedule.Acyclic bi ->
          incr evaluations;
          ignore (apply_block ?probe c ~bufs nets bi)
      | Schedule.Cyclic members ->
          (* Local domain height = nets written inside the SCC; one
             extra round detects stability. *)
          let scc_nets =
            Array.fold_left
              (fun acc bi ->
                let _, _, outs = c.Graph.c_blocks.(bi) in
                acc + Array.length outs)
              0 members
          in
          let rounds =
            iterate_scc ?probe c nets ~bufs ~members ~bound:(scc_nets + 2)
              ~evaluations
          in
          if rounds > !max_rounds then max_rounds := rounds)
    (Schedule.groups schedule);
  (!max_rounds, !evaluations)

(* ------------------------------------------------------------------ *)
(* Worklist: every block is seeded once; afterwards a block re-enters
   the queue only when one of its input nets actually changed.          *)
(* ------------------------------------------------------------------ *)

let eval_worklist ?probe c nets ~bufs ~seed =
  let n_blocks = Array.length c.Graph.c_blocks in
  let queue = Queue.create () in
  let in_queue = Array.make n_blocks false in
  let eval_count = Array.make n_blocks 0 in
  Array.iter
    (fun bi ->
      Queue.push bi queue;
      in_queue.(bi) <- true)
    seed;
  let evaluations = ref 0 in
  (* Monotone blocks change each net at most n_nets times in total, so
     every block re-enters the queue a bounded number of times. *)
  let max_evaluations = (n_blocks + 1) * (c.Graph.n_nets + 2) in
  while not (Queue.is_empty queue) do
    let bi = Queue.pop queue in
    in_queue.(bi) <- false;
    incr evaluations;
    eval_count.(bi) <- eval_count.(bi) + 1;
    if !evaluations > max_evaluations then
      raise (Nonmonotonic "worklist exceeded the monotone evaluation bound");
    let _, _, out_nets = c.Graph.c_blocks.(bi) in
    let before = bufs.b_out.(bi) in
    for port = 0 to Array.length out_nets - 1 do
      before.(port) <- nets.(out_nets.(port))
    done;
    if apply_block ?probe c ~bufs nets bi then
      Array.iteri
        (fun port net ->
          if not (Domain.equal before.(port) nets.(net)) then
            Array.iter
              (fun consumer ->
                if not in_queue.(consumer) then begin
                  Queue.push consumer queue;
                  in_queue.(consumer) <- true
                end)
              c.Graph.c_consumers.(net))
        out_nets
  done;
  let deepest = Array.fold_left max 1 eval_count in
  (deepest, !evaluations)

(* ------------------------------------------------------------------ *)
(* Fused: execute a precompiled Fuse plan. Acyclic blocks store their
   outputs directly into net slots (single producer + topological order
   make the direct store exact); cyclic SCCs fall back to the bounded
   lub iteration above. Unprobed runs take the chain-collapsed fast
   lane; a probe sees the block-at-a-time ops, whose kernel steps run
   in place on the net slots under the probe's guard. Only opaque
   blocks and SCC members apply whole blocks.                          *)
(* ------------------------------------------------------------------ *)

let eval_fused ?probe c nets ~bufs ~plan =
  let evaluations = ref 0 in
  let max_rounds = ref 1 in
  (match probe with
  | None ->
      (* Hot path: the fast lane. Chains are already collapsed into
         closures, so the pass is a bare sweep over them; the block
         applications it stands for are accounted in one add. *)
      evaluations := plan.Fuse.f_fast_evals;
      let fast = plan.Fuse.f_fast in
      for k = 0 to Array.length fast - 1 do
        match fast.(k) with
        | Fuse.Frun run -> run nets
        | Fuse.Fiter (members, bound) ->
            let rounds = iterate_scc c nets ~bufs ~members ~bound ~evaluations in
            if rounds > !max_rounds then max_rounds := rounds
      done;
      (* serve environment-read fork/identity ports from their alias *)
      let dst = plan.Fuse.f_copy_dst and src = plan.Fuse.f_copy_src in
      for k = 0 to Array.length dst - 1 do
        nets.(dst.(k)) <- nets.(src.(k))
      done
  | Some p ->
      (* Folded blocks stay folded — they are constant, cannot fault,
         and the causal probe records them as template bindings. *)
      let ops = plan.Fuse.f_ops in
      for k = 0 to Array.length ops - 1 do
        match ops.(k) with
        | Fuse.Step (bi, step) | Fuse.Generic (bi, step) ->
            incr evaluations;
            let _, _, out_nets = c.Graph.c_blocks.(bi) in
            p.Probe.enter bi;
            Probe.run p bi step nets nets out_nets;
            p.Probe.leave bi nets Probe.Stored
        | Fuse.Iterate (members, bound) ->
            let rounds =
              iterate_scc ~probe:p c nets ~bufs ~members ~bound ~evaluations
            in
            if rounds > !max_rounds then max_rounds := rounds
      done);
  (!max_rounds, !evaluations)

(* ------------------------------------------------------------------ *)

(* How an instant runs: the strategy with what it needs, prepared once. *)
type lane =
  | Sweep of int array  (* chaotic, in this block order *)
  | Static  (* scheduled, along the plan's schedule *)
  | Queue of int array  (* worklist, seeded in this order *)
  | Plan of Fuse.t  (* fused *)

type plan = {
  p_graph : Graph.compiled;
  p_strategy : strategy;
  p_schedule : Schedule.t;
  p_lane : lane;
  p_buffers : buffers;
  p_nets : Domain.t array;
}

let prepare ?order strategy (c : Graph.compiled) =
  (match (order, strategy) with
  | Some _, (Scheduled | Worklist | Fused) ->
      invalid_arg
        (Printf.sprintf
           "fixpoint: explicit evaluation order requires the chaotic \
            strategy, not %s"
           (strategy_name strategy))
  | _ -> ());
  let p_schedule = Schedule.of_compiled c in
  { p_graph = c;
    p_strategy = strategy;
    p_schedule;
    p_lane =
      (match strategy with
      | Chaotic ->
          Sweep
            (match order with
            | Some o -> o
            | None -> Array.init (Array.length c.Graph.c_blocks) Fun.id)
      | Scheduled -> Static
      | Worklist -> Queue (Schedule.linear_order p_schedule)
      | Fused -> Plan (Fuse.compile ~schedule:p_schedule c));
    p_buffers = make_buffers c;
    p_nets = Array.make c.Graph.n_nets Domain.Bottom }

let graph p = p.p_graph

let strategy p = p.p_strategy

let schedule p = p.p_schedule

let fused p =
  match p.p_lane with Plan f -> Some f | Sweep _ | Static | Queue _ -> None

let nets p = p.p_nets

let eval plan ~inputs ~delay_values ?probe () =
  let c = plan.p_graph and nets = plan.p_nets and bufs = plan.p_buffers in
  (* a probe with instant hooks only leaves every strategy on its
     unprobed path — under Fused, the fast lane *)
  let watch =
    match probe with
    | Some p when Probe.observes_applications p -> probe
    | _ -> None
  in
  (* The fused template preloads folded constant nets; other strategies
     start from all-⊥. The fast lane restores only the slots a pass can
     leave stale — everything else is rewritten unconditionally or
     aliased away. Probed runs step block by block over every net, so
     they need the full blit. *)
  (match (fused plan, watch) with
  | Some p, None ->
      let template = p.Fuse.f_template and rlist = p.Fuse.f_reset in
      for k = 0 to Array.length rlist - 1 do
        let s = rlist.(k) in
        nets.(s) <- template.(s)
      done
  | Some p, Some _ -> Array.blit p.Fuse.f_template 0 nets 0 (Array.length nets)
  | None, _ -> Array.fill nets 0 (Array.length nets) Domain.Bottom);
  List.iter
    (fun (label, v) ->
      match Graph.input_net c label with
      | Some net -> nets.(net) <- v
      | None -> invalid_arg (Printf.sprintf "fixpoint: unknown input '%s'" label))
    inputs;
  if Array.length delay_values <> Array.length c.Graph.c_delays then
    invalid_arg "fixpoint: delay vector length mismatch";
  Array.iteri
    (fun i (_, out_net, _) -> nets.(out_net) <- delay_values.(i))
    c.Graph.c_delays;
  (match probe with
  | Some p -> p.Probe.instant_begin c ~plan:(fused plan) ~inputs ~delay_values
  | None -> ());
  let iterations, block_evaluations =
    match plan.p_lane with
    | Sweep order -> eval_chaotic ?probe:watch c nets ~bufs ~order
    | Static ->
        eval_scheduled ?probe:watch c nets ~bufs ~schedule:plan.p_schedule
    | Queue seed -> eval_worklist ?probe:watch c nets ~bufs ~seed
    | Plan fused -> eval_fused ?probe:watch c nets ~bufs ~plan:fused
  in
  (match probe with
  | Some p -> p.Probe.instant_end ~nets ~iterations ~block_evaluations
  | None -> ());
  { nets; iterations; block_evaluations }

let outputs (c : Graph.compiled) result =
  Array.to_list
    (Array.map (fun (label, net) -> (label, result.nets.(net))) c.Graph.c_outputs)

let delay_next (c : Graph.compiled) result =
  Array.map (fun (in_net, _, _) -> result.nets.(in_net)) c.Graph.c_delays

let delay_next_into (c : Graph.compiled) result dst =
  let delays = c.Graph.c_delays in
  if Array.length dst <> Array.length delays then
    invalid_arg "fixpoint: delay vector length mismatch";
  for i = 0 to Array.length delays - 1 do
    let in_net, _, _ = delays.(i) in
    dst.(i) <- result.nets.(in_net)
  done
