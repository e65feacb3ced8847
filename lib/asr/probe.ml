module Causal = Telemetry.Causal

type step = Domain.t array -> unit

type outcome = Stored | Merged | Retracted

type t = {
  instant_begin :
    Graph.compiled ->
    plan:Fuse.t option ->
    inputs:(string * Domain.t) list ->
    delay_values:Domain.t array ->
    unit;
  instant_end : unit -> unit;
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
let no_end () = ()
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
      pick no_end a.instant_end b.instant_end (fun () ->
          b.instant_end ();
          a.instant_end ());
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
    instant_end = (fun () -> if !opened then Causal.end_instant cz);
    enter =
      (fun bi ->
        let _, ins, _ = !blocks.(bi) in
        Causal.eval_begin cz ~block:bi ~reads:ins);
    write = (fun net v -> Causal.eval_write cz ~net v);
    leave }
