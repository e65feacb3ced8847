module Causal = Telemetry.Causal
module Registry = Telemetry.Registry
module Monitor = Telemetry.Monitor

type step = Domain.t array -> unit

type outcome = Stored | Merged | Retracted

type t = {
  instant_begin :
    Graph.compiled ->
    plan:Fuse.t option ->
    inputs:(string * Domain.t) list ->
    delay_values:Domain.t array ->
    unit;
  instant_end :
    nets:Domain.t array -> iterations:int -> block_evaluations:int -> unit;
  enter : int -> unit;
  guard :
    (int -> step -> Domain.t array -> Domain.t array -> int array -> unit)
    option;
  retract : int -> Domain.t array -> int array -> string -> bool;
  write : int -> Domain.t -> unit;
  leave : int -> Domain.t array -> outcome -> unit;
}

(* The do-nothing hooks are shared values, so {!compose} can drop them
   by physical equality and a composed hook only calls probes that
   listen. *)
let no_begin _ ~plan:_ ~inputs:_ ~delay_values:_ = ()
let no_end ~nets:_ ~iterations:_ ~block_evaluations:_ = ()
let no_enter (_ : int) = ()
let no_retract _ _ _ _ = false
let no_write (_ : int) (_ : Domain.t) = ()
let no_leave _ _ _ = ()

let none =
  { instant_begin = no_begin;
    instant_end = no_end;
    enter = no_enter;
    guard = None;
    retract = no_retract;
    write = no_write;
    leave = no_leave }

let run p bi step nets dst slots =
  match p.guard with None -> step nets | Some g -> g bi step nets dst slots

let both a b =
  let pick nop fa fb combined =
    if fa == nop then fb else if fb == nop then fa else combined
  in
  { instant_begin =
      pick no_begin a.instant_begin b.instant_begin
        (fun c ~plan ~inputs ~delay_values ->
          a.instant_begin c ~plan ~inputs ~delay_values;
          b.instant_begin c ~plan ~inputs ~delay_values);
    instant_end =
      pick no_end a.instant_end b.instant_end
        (fun ~nets ~iterations ~block_evaluations ->
          b.instant_end ~nets ~iterations ~block_evaluations;
          a.instant_end ~nets ~iterations ~block_evaluations);
    enter =
      pick no_enter a.enter b.enter (fun bi ->
          a.enter bi;
          b.enter bi);
    guard =
      (match (a.guard, b.guard) with
      | Some _, Some _ -> invalid_arg "Probe.compose: more than one guard"
      | (Some _ as g), None | None, g -> g);
    retract =
      pick no_retract a.retract b.retract (fun bi nets outs detail ->
          a.retract bi nets outs detail || b.retract bi nets outs detail);
    write =
      pick no_write a.write b.write (fun net v ->
          a.write net v;
          b.write net v);
    leave =
      pick no_leave a.leave b.leave (fun bi nets o ->
          a.leave bi nets o;
          b.leave bi nets o) }

let compose = function
  | [] -> None
  | p :: rest -> Some (List.fold_left both p rest)

let observes_applications p =
  p.guard <> None || p.enter != no_enter || p.retract != no_retract
  || p.write != no_write || p.leave != no_leave

let counter counts =
  { none with
    instant_begin =
      (fun c ~plan:_ ~inputs:_ ~delay_values:_ ->
        if Array.length counts <> Array.length c.Graph.c_blocks then
          invalid_arg "Probe.counter: count array length mismatch");
    enter = (fun bi -> counts.(bi) <- counts.(bi) + 1) }

let causal ?containment cz =
  let blocks = ref [||] and opened = ref false in
  let instant_begin (c : Graph.compiled) ~plan ~inputs ~delay_values =
    blocks := c.Graph.c_blocks;
    opened := not (Causal.in_instant cz);
    if !opened then Causal.begin_instant cz;
    (match plan with
    | Some p ->
        List.iter
          (fun (net, v) -> Causal.record_binding cz ~kind:Causal.Folded ~net v)
          (Fuse.constant_nets p)
    | None -> ());
    List.iter
      (fun (label, v) ->
        match Graph.input_net c label with
        | Some net -> Causal.record_binding cz ~kind:Causal.Input ~net v
        | None -> ())
      inputs;
    (* delay reads resolve against the previous instant's writers *)
    Array.iteri
      (fun i (in_net, out_net, _) ->
        Causal.record_binding cz ~kind:Causal.Delay ~net:out_net ~src:in_net
          delay_values.(i))
      c.Graph.c_delays
  in
  let leave bi nets outcome =
    (match outcome with
    | Retracted -> Causal.set_tag cz "contained:retraction"
    | Stored | Merged -> (
        match containment with
        | None -> ()
        | Some tag_of -> (
            match tag_of bi with
            | Some tag -> Causal.set_tag cz tag
            | None -> ())));
    let _, _, outs = !blocks.(bi) in
    let tagged = String.length (Causal.pending_tag cz) > 0 in
    (match outcome with
    | Stored ->
        (* single producer + topological order make the direct store
           the establishing write; a tagged substitution records its ⊥
           ports too *)
        for p = 0 to Array.length outs - 1 do
          let v = nets.(outs.(p)) in
          if tagged || Domain.is_def v then Causal.eval_write cz ~net:outs.(p) v
        done
    | Merged | Retracted ->
        (* a substitution that established nothing still links the
           block's nets to the tagged event *)
        if tagged && Causal.pending_writes cz = 0 then
          Array.iter (fun net -> Causal.eval_write cz ~net nets.(net)) outs);
    Causal.eval_commit cz
  in
  { none with
    instant_begin;
    instant_end =
      (fun ~nets:_ ~iterations:_ ~block_evaluations:_ ->
        if !opened then Causal.end_instant cz);
    enter =
      (fun bi ->
        let _, ins, _ = !blocks.(bi) in
        Causal.eval_begin cz ~block:bi ~reads:ins);
    write = (fun net v -> Causal.eval_write cz ~net v);
    leave }

(* ------------------------- instant probes ------------------------- *)

type clock = {
  mutable instant : int;
  last : Domain.t array;
  mutable scanned : int;
  mutable churn : int;
}

let clock ~churn n_nets =
  { instant = 0;
    last = (if churn then Array.make n_nets Domain.Bottom else [||]);
    scanned = -1;
    churn = 0 }

(* The O(nets) scan runs at most once per instant: a second reader of
   the same instant gets the cached count. *)
let churn clk nets ~scan =
  if clk.scanned = clk.instant then clk.churn
  else if not scan then 0
  else begin
    let c = ref 0 and last = clk.last in
    for i = 0 to Array.length nets - 1 do
      let v = nets.(i) in
      if not (Domain.equal v last.(i)) then begin
        incr c;
        last.(i) <- v
      end
    done;
    clk.scanned <- clk.instant;
    clk.churn <- !c;
    !c
  end

let registry clk reg (c : Graph.compiled) ~faults =
  let counts = Array.make (Array.length c.Graph.c_blocks) 0 in
  let block_counters =
    Array.map
      (fun (block, _, _) ->
        Registry.counter reg ("asr.block." ^ block.Block.name ^ ".evals"))
      c.Graph.c_blocks
  in
  let instant_begin _ ~plan:_ ~inputs:_ ~delay_values:_ =
    Registry.enter reg ~cat:"asr" "instant";
    Array.fill counts 0 (Array.length counts) 0
  in
  let instant_end ~nets ~iterations ~block_evaluations =
    let net_churn = churn clk nets ~scan:true in
    Array.iteri
      (fun bi n -> if n > 0 then Registry.add block_counters.(bi) n)
      counts;
    Registry.count reg "asr.instants" 1;
    Registry.count reg "asr.block_evaluations" block_evaluations;
    Registry.observe_value reg "asr.fixpoint_iterations" iterations;
    Registry.exit reg
      ~args:
        ([ ("instant", Registry.Int clk.instant);
           ("iterations", Registry.Int iterations);
           ("block_evaluations", Registry.Int block_evaluations);
           ("net_churn", Registry.Int net_churn) ]
        @
        match faults with
        | Some f -> [ ("faults", Registry.Int (f ())) ]
        | None -> [])
      ()
  in
  { (counter counts) with instant_begin; instant_end }

let monitor clk mon ~faults ~escalated =
  let k = Monitor.churn_every mon in
  { none with
    instant_begin =
      (fun _ ~plan:_ ~inputs:_ ~delay_values:_ -> Monitor.instant_begin mon);
    instant_end =
      (fun ~nets ~iterations ~block_evaluations ->
        (* sampled every [k] instants, closing a uniform window
           (instants k-1, 2k-1, ...), unless a registry already
           scanned this instant *)
        let net_churn =
          churn clk nets ~scan:(k > 0 && (clk.instant + 1) mod k = 0)
        in
        Monitor.instant_end mon ~instant:clk.instant ~iterations
          ~block_evals:block_evaluations ~net_churn
          ~faults:(match faults with Some f -> f () | None -> 0);
        match escalated with
        | Some f ->
            List.iter (fun block -> Monitor.quarantine mon ~block) (f ())
        | None -> ()) }
