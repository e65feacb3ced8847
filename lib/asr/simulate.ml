type trace_entry = {
  instant : int;
  inputs : (string * Domain.t) list;
  outputs : (string * Domain.t) list;
  iterations : int;
}

type t = {
  plan : Fixpoint.plan;
  probe : Probe.t option;  (* every attachment, composed once *)
  clock : Probe.clock;  (* instant index and churn reference *)
  mutable delays : Domain.t array;
  mutable evaluations : int;
  telemetry : Telemetry.Registry.t option;
  supervisor : Supervisor.t option;
  monitor : Telemetry.Monitor.t option;
  causal : Domain.t Telemetry.Causal.t option;
}

let initial_delays compiled =
  Array.map (fun (_, _, init) -> init) compiled.Graph.c_delays

let create ?order ?strategy ?telemetry ?supervisor ?monitor ?causal graph =
  let compiled = Graph.compile graph in
  let strategy =
    match (strategy, order) with
    | Some s, _ -> s
    | None, Some _ -> Fixpoint.Chaotic
    | None, None -> Fixpoint.Worklist
  in
  (match causal with
  | Some cz when Telemetry.Causal.n_nets cz <> compiled.Graph.n_nets ->
      invalid_arg "Simulate.create: causal sink net count mismatch"
  | _ -> ());
  let plan = Fixpoint.prepare ?order strategy compiled in
  (* the monitor's data_loss object reports causal-ring loss, and its
     health is the supervisor's: sources, because telemetry cannot
     depend on asr types *)
  (match (monitor, causal) with
  | Some mon, Some cz ->
      Telemetry.Monitor.set_causal_source mon (fun () ->
          Telemetry.Causal.data_loss cz)
  | _ -> ());
  (match supervisor with
  | Some sup -> Supervisor.attach sup compiled
  | None -> ());
  (match (monitor, supervisor) with
  | Some mon, Some sup ->
      Telemetry.Monitor.set_health_source mon (fun () ->
          Supervisor.health_json sup)
  | _ -> ());
  let clock =
    Probe.clock
      ~churn:(telemetry <> None || monitor <> None)
      compiled.Graph.n_nets
  in
  let faults =
    Option.map (fun sup () -> Supervisor.instant_fault_count sup) supervisor
  in
  let escalated =
    Option.map
      (fun sup () ->
        List.map
          (fun bi ->
            let block, _, _ = compiled.Graph.c_blocks.(bi) in
            block.Block.name)
          (Supervisor.escalated sup))
      supervisor
  in
  (* Instant hooks open in list order and close in reverse: the
     registry closes first, so its exact churn is the monitor's too, and
     the supervisor closes before the monitor records the instant — a
     quarantine escalation's flight dump covers the instant that
     triggered it, and its health already shows the quarantine. *)
  let probes =
    List.filter_map Fun.id
      [ Option.map
          (fun mon -> Probe.monitor clock mon ~faults ~escalated)
          monitor;
        Option.map Supervisor.probe supervisor;
        Option.map
          (Probe.causal
             ?containment:(Option.map Supervisor.containment supervisor))
          causal;
        Option.map (fun reg -> Probe.registry clock reg compiled ~faults)
          telemetry ]
  in
  { plan;
    probe = Probe.compose probes;
    clock;
    delays = initial_delays compiled;
    evaluations = 0;
    telemetry;
    supervisor;
    monitor;
    causal }

(* One instant: the probe opens and closes it around the fixed point;
   outputs and the next delay state are harvested before the net
   buffer is recycled. *)
let react t inputs =
  let result =
    Fixpoint.eval t.plan ~inputs ~delay_values:t.delays ?probe:t.probe ()
  in
  let compiled = Fixpoint.graph t.plan in
  (* in place: the bound values were copied into the net slots already *)
  Fixpoint.delay_next_into compiled result t.delays;
  t.clock.Probe.instant <- t.clock.Probe.instant + 1;
  t.evaluations <- t.evaluations + result.Fixpoint.block_evaluations;
  (Fixpoint.outputs compiled result, result.Fixpoint.iterations)

let step t inputs = fst (react t inputs)

let run t stream =
  List.map
    (fun inputs ->
      let instant = t.clock.Probe.instant in
      let outputs, iterations = react t inputs in
      { instant; inputs; outputs; iterations })
    stream

let strategy t = Fixpoint.strategy t.plan

let graph t = Fixpoint.graph t.plan

let fuse_plan t = Fixpoint.fused t.plan

let supervisor t = t.supervisor

let monitor t = t.monitor

let causal t = t.causal

let telemetry t = t.telemetry

let net_values t = Array.copy (Fixpoint.nets t.plan)

let schedule t = Fixpoint.schedule t.plan

let instant_count t = t.clock.Probe.instant

let block_evaluations t = t.evaluations

(* ------------------------- checkpoint state ----------------------- *)

type state = {
  st_instant : int;
  st_evaluations : int;
  st_delays : Domain.t array;
  st_nets : Domain.t array;
  st_prev_nets : Domain.t array;
}

(* Why this is the complete simulator-side state: a fresh simulator is
   indistinguishable from a reset one (the fused fast lane re-fills its
   template slots from [f_template] each instant, and the plain paths
   refill from ⊥), so everything an instant's outcome depends on is
   the delay registers, the last fixed point (the plan's net buffer —
   what [net_values] reports between instants), the churn reference
   (the clock's [last]) and the two counters. Attachment state (supervisor,
   monitor, causal, registry) is checkpointed by the attachments
   themselves. *)
let export_state t =
  { st_instant = t.clock.Probe.instant;
    st_evaluations = t.evaluations;
    st_delays = Array.copy t.delays;
    st_nets = net_values t;
    st_prev_nets = Array.copy t.clock.Probe.last }

let import_state t st =
  if Array.length st.st_delays <> Array.length t.delays then
    invalid_arg "Simulate.import_state: delay count mismatch";
  let nets = Fixpoint.nets t.plan and prev_nets = t.clock.Probe.last in
  if Array.length st.st_nets <> Array.length nets then
    invalid_arg "Simulate.import_state: net count mismatch";
  t.clock.Probe.instant <- st.st_instant;
  t.clock.Probe.scanned <- -1;
  t.evaluations <- st.st_evaluations;
  Array.blit st.st_delays 0 t.delays 0 (Array.length st.st_delays);
  Array.blit st.st_nets 0 nets 0 (Array.length st.st_nets);
  (* [prev_nets] is [||] on a simulator without churn sinks; when both
     sides track churn the reference must transfer for bit-identical
     churn counts. A checkpoint from a sink-less simulator restored
     into a sink-ful one starts churn from the restored fixed point. *)
  let n = min (Array.length st.st_prev_nets) (Array.length prev_nets) in
  if n < Array.length prev_nets then
    Array.blit st.st_nets 0 prev_nets 0 (Array.length prev_nets)
  else Array.blit st.st_prev_nets 0 prev_nets 0 n

let reset t =
  let nets = Fixpoint.nets t.plan and prev_nets = t.clock.Probe.last in
  t.delays <- initial_delays (Fixpoint.graph t.plan);
  t.clock.Probe.instant <- 0;
  t.clock.Probe.scanned <- -1;
  t.evaluations <- 0;
  Array.fill nets 0 (Array.length nets) Domain.Bottom;
  Array.fill prev_nets 0 (Array.length prev_nets) Domain.Bottom;
  (match t.supervisor with
  | Some sup -> Supervisor.reset sup
  | None -> ())
