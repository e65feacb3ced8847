open Util
module D = Asr.Domain
module Dt = Asr.Data
module G = Asr.Graph
module B = Asr.Block
module S = Asr.Supervisor
module I = Asr.Inject
module Fx = Asr.Fixpoint
module Sim = Asr.Simulate
module K = Asr.Checkpoint
module Cd = Asr.Codec
module C = Telemetry.Causal
module J = Telemetry.Json
module M = Telemetry.Monitor
module Rc = Telemetry.Recorder
module E = Javatime.Elaborate

(* ---- helpers ----------------------------------------------------- *)

let jget path j =
  List.fold_left
    (fun acc k -> match acc with Some o -> J.member k o | None -> None)
    (Some j) path

let jint path j =
  match jget path j with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "missing int at %s" (String.concat "." path)

(* x --gain 2--> (+) --> y, with the adder's second arm fed back
   through a delay: y(t) = 2 x(t) + y(t-1). *)
let chain_graph ?(name = "chain") ?(gain = 2) () =
  let g = G.create name in
  let x = G.add_input g "x" in
  let gn = G.add_block g (B.gain gain) in
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port gn 0);
  let add = G.add_block g B.add in
  G.connect g ~src:(G.out_port gn 0) ~dst:(G.in_port add 0);
  let f = G.add_block g (B.fork 2) in
  G.connect g ~src:(G.out_port add 0) ~dst:(G.in_port f 0);
  let d = G.add_delay g ~init:(D.int 0) in
  G.connect g ~src:(G.out_port f 0) ~dst:(G.in_port d 0);
  G.connect g ~src:(G.out_port d 0) ~dst:(G.in_port add 1);
  let y = G.add_output g "y" in
  G.connect g ~src:(G.out_port f 1) ~dst:(G.in_port y 0);
  g

let chain_stream n = List.init n (fun t -> [ ("x", D.int (t + 1)) ])

let persistent_trap ~block ~instant =
  { I.i_block = block;
    i_kind = I.Trap;
    i_instant = instant;
    i_persistence = I.Persistent;
    i_first_only = false }

(* The full attachment set the CLI wires up, over an instrumented copy
   of [g]. *)
let attach ?policy ?escalate_after ?(inject = []) ?(causal = false)
    ~strategy g =
  let injector = if inject = [] then None else Some (I.make inject) in
  let g' = match injector with None -> g | Some inj -> I.instrument inj g in
  let sup =
    Option.map (fun p -> S.create ~policy:p ?escalate_after ()) policy
  in
  let cz =
    if causal then Some (C.create ~n_nets:(G.compile g).G.n_nets ())
    else None
  in
  let sim =
    Sim.create ~strategy
      ~telemetry:(Telemetry.Registry.create ())
      ?supervisor:sup
      ~monitor:(M.create ())
      ?causal:cz g'
  in
  (sim, injector)

let rec drop n = function _ :: tl when n > 0 -> drop (n - 1) tl | l -> l

let outputs_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun xs ys ->
         List.length xs = List.length ys
         && List.for_all2
              (fun (n1, v1) (n2, v2) ->
                String.equal n1 n2 && Cd.value_eq v1 v2)
              xs ys)
       a b

(* Drive [sim] over [stream] (ticking [injector]), stopping on a
   Fail_fast abort; returns completed outputs and the fault, if any. *)
let run_to_end sim injector stream =
  let outs = ref [] and fatal = ref None in
  (try
     List.iter
       (fun inputs ->
         outs := Sim.step sim inputs :: !outs;
         Option.iter I.tick injector)
       stream
   with S.Fatal f -> fatal := Some f);
  (List.rev !outs, !fatal)

(* Oracle run that also captures a checkpoint at instant boundary
   [at]. *)
let run_capturing ?policy ?escalate_after ?(inject = []) ?(causal = false)
    ~strategy ~at g stream =
  let sim, injector =
    attach ?policy ?escalate_after ~inject ~causal ~strategy g
  in
  let ck = ref None in
  let outs = ref [] and fatal = ref None in
  (try
     List.iteri
       (fun i inputs ->
         if i = at then
           ck := Some (K.capture ~system:"test" ~seed:5 ?injector sim);
         outs := Sim.step sim inputs :: !outs;
         Option.iter I.tick injector)
       stream
   with S.Fatal f -> fatal := Some f);
  let final =
    match !fatal with
    | Some _ -> None
    | None -> Some (K.capture ~system:"test" ~seed:5 ?injector sim)
  in
  (Option.get !ck, List.rev !outs, final, !fatal)

(* ---- corrupt causal sections ------------------------------------ *)

let map_member k f = function
  | J.Obj kvs ->
      J.Obj (List.map (fun (k', v) -> (k', if k' = k then f v else v)) kvs)
  | j -> j

let map_list f = function J.List l -> J.List (f l) | j -> j

(* Rewrite the [i]-th (mod count) event satisfying [pred]. *)
let map_event ~pred i f causal =
  map_member "events"
    (map_list (fun evs ->
         let hits = List.filter pred evs in
         if hits = [] then evs
         else
           let target = List.nth hits (i mod List.length hits) in
           List.map (fun ev -> if ev == target then f ev else ev) evs))
    causal

let has_list k ev =
  match J.member k ev with Some (J.List (_ :: _)) -> true | _ -> false

let map_first_pair k f =
  map_member k (map_list (function
    | J.List [ a; b ] :: rest -> J.List (f a b) :: rest
    | l -> l))

(* One corruption of the causal section per case, each a violation of
   a log invariant: uids outside the retention window or out of push
   order, nets outside the graph, reads of later events, instants past
   the log's, writer registers that were never pushed. *)
let corruptions ~pushed ~n_nets =
  let any _ = true in
  [ ("uid past the push count", fun i d ->
        map_event ~pred:any i (map_member "uid" (fun _ -> J.Int (pushed + d))));
    ("negative uid", fun i d ->
        map_event ~pred:any i (map_member "uid" (fun _ -> J.Int (-1 - d))));
    ("read net out of range", fun i d ->
        map_event ~pred:(has_list "reads") i
          (map_first_pair "reads" (fun _ u -> [ J.Int (n_nets + d); u ])));
    ("read of a later event", fun i d ->
        map_event ~pred:(has_list "reads") i (fun ev ->
            let uid =
              match J.member "uid" ev with Some (J.Int u) -> u | _ -> 0
            in
            map_first_pair "reads" (fun n _ -> [ n; J.Int (uid + d) ]) ev));
    ("write net out of range", fun i d ->
        map_event ~pred:(has_list "writes") i
          (map_first_pair "writes" (fun _ v -> [ J.Int (n_nets + d); v ])));
    ("negative write net", fun i d ->
        map_event ~pred:(has_list "writes") i
          (map_first_pair "writes" (fun _ v -> [ J.Int (-1 - d); v ])));
    ("delay source out of range", fun i d ->
        map_event ~pred:(fun ev -> J.member "src" ev <> None) i
          (map_member "src" (fun _ -> J.Int (n_nets + d))));
    ("instant past the log's", fun i d ->
        map_event ~pred:any i
          (map_member "instant" (fun _ -> J.Int (1_000 + d))));
    ("events out of push order", fun _ _ ->
        map_member "events" (map_list List.rev));
    ("writer never pushed", fun i d ->
        map_member "writers"
          (map_list
             (List.mapi (fun k w ->
                  if k = i mod n_nets then J.Int (pushed + d) else w))));
    ("non-positive capacity", fun _ d ->
        map_member "capacity" (fun _ -> J.Int (-d))) ]

(* Resume [ck] against clean [g] and drive the remaining instants. *)
let resume_run ck g stream =
  let r = K.resume ck g in
  let start = K.instant ck in
  let routs, rfatal = run_to_end r.K.r_sim r.K.r_injector (drop start stream) in
  let final =
    match rfatal with
    | Some _ -> None
    | None ->
        Some
          (K.capture ~system:"test" ~seed:5 ?injector:r.K.r_injector
             r.K.r_sim)
  in
  (r, start, routs, final, rfatal)

(* The same, through a JSON round-trip of [ck]. *)
let resume_and_run ck g stream = resume_run (K.of_json (K.to_json ck)) g stream

(* A resumed run converged: identical suffix outputs and a final
   checkpoint byte-identical to the oracle's (or, on aborted runs, the
   same abort instant and fault). *)
let converged ~oracle_outs ~oracle_final ~oracle_fatal ~start ~routs ~final
    ~rfatal =
  outputs_eq routs (drop start oracle_outs)
  &&
  match (oracle_fatal, rfatal) with
  | None, None -> K.equal (Option.get oracle_final) (Option.get final)
  | Some f, Some f' ->
      start + List.length routs = List.length oracle_outs
      && String.equal (S.fault_to_string f) (S.fault_to_string f')
  | _ -> false

let bits_roundtrip f =
  match J.float_of_bits (J.float_bits f) with
  | Some f' -> Int64.bits_of_float f' = Int64.bits_of_float f
  | None -> false


(* ---- one owner of fault state ------------------------------------ *)

(* The CLI's resume scenario on the chain: a persistent trap in the
   gain block quarantines it at instant 2 (escalation after 3). The
   oracle runs 6 instants with a monitor; the resumed run checkpoints
   at instant 4 with none attached and resumes with a fresh monitor for
   the last 2. Returns the oracle's and the resumed monitor. *)
let resumed_with_fresh_monitor () =
  let g = chain_graph () in
  let stream = chain_stream 6 in
  let inject = [ persistent_trap ~block:0 ~instant:0 ] in
  let drive ?monitor stream =
    let inj = I.make inject in
    let sim =
      Sim.create ~supervisor:(S.create ~escalate_after:3 ()) ?monitor
        (I.instrument inj g)
    in
    ignore (run_to_end sim (Some inj) stream);
    K.capture ~system:"test" ~injector:inj sim
  in
  let oracle = M.create () in
  ignore (drive ~monitor:oracle stream);
  let ck = drive (List.filteri (fun i _ -> i < 4) stream) in
  let resumed = M.create () in
  let r = K.resume ~monitor:resumed ck g in
  ignore (run_to_end r.K.r_sim r.K.r_injector (drop 4 stream));
  (oracle, resumed)

let flight_instants m =
  List.map (fun r -> r.Rc.r_instant) (Rc.records (M.recorder m))

(* Block health recomputed from an uncapped fault log, over the
   [closed] instants that completed: contained faults and the instant
   of the last one, retry recoveries, escalations, and the streaks the
   watchdog counts (a quarantined block's streak never resets). *)
let health_of_log (c : G.compiled) faults ~closed =
  let n = Array.length c.G.c_blocks in
  let contained = Array.make n 0 and recovered = Array.make n 0 in
  let last = Array.make n (-1) and escalated_at = Array.make n max_int in
  let faulty = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let b = f.S.f_block in
      match f.S.f_action with
      | S.Escalated -> escalated_at.(b) <- f.S.f_instant
      | S.Recovered _ -> recovered.(b) <- recovered.(b) + 1
      | S.Held | S.Went_absent | S.Aborted ->
          contained.(b) <- contained.(b) + 1;
          last.(b) <- f.S.f_instant;
          Hashtbl.replace faulty (b, f.S.f_instant) ())
    faults;
  List.filter_map
    (fun b ->
      if contained.(b) = 0 && recovered.(b) = 0 then None
      else begin
        let streak = ref 0 and longest = ref 0 in
        for i = 0 to closed - 1 do
          if Hashtbl.mem faulty (b, i) then begin
            incr streak;
            longest := max !longest !streak
          end
          else if i < escalated_at.(b) then streak := 0
        done;
        let block, _, _ = c.G.c_blocks.(b) in
        Some
          { S.h_block = b;
            h_block_name = block.B.name;
            h_faults = contained.(b);
            h_recovered = recovered.(b);
            h_streak = !streak;
            h_max_streak = !longest;
            h_last_fault_instant = last.(b);
            h_quarantined = escalated_at.(b) < max_int }
      end)
    (List.init n Fun.id)

(* ---- damaged artifacts ------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let saved ck =
  let path = Filename.temp_file "ck-gate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      K.save ck path;
      read_file path)

(* The on-disk envelope, rebuilt around a tampered payload with a
   matching digest: what a well-formed artifact of another version
   looks like. *)
let enveloped payload =
  Printf.sprintf {|{"digest":"%s","artifact":%s}|}
    (Digest.to_hex (Digest.string payload))
    payload
  ^ "\n"

let with_version v ck =
  J.to_string (map_member "version" (fun _ -> J.Int v) (K.to_json ck))

(* Plain and recorded artifacts of the chain graph, and a recording of
   the same stream on another graph (other block, other system name). *)
let gate_artifacts =
  lazy
    (let g = chain_graph () in
     let cz = C.create ~n_nets:(G.compile g).G.n_nets () in
     let sim = Sim.create ~supervisor:(S.create ()) ~causal:cz g in
     List.iter (fun i -> ignore (Sim.step sim i)) (chain_stream 4);
     let recorded =
       K.record ~policy:S.Hold_last
         ~inject:[ persistent_trap ~block:1 ~instant:2 ]
         g (chain_stream 6)
     in
     let other =
       K.record (chain_graph ~name:"other-system" ~gain:3 ()) (chain_stream 6)
     in
     (K.capture ~system:"chain" sim, recorded, other))

(* Exceptions the CLI maps to exit 1: [handle]'s diagnostics, and
   [trace-diff]'s incomparable verdict. *)
let diagnosed f =
  match f () with
  | _ -> Ok true
  | exception
      (Invalid_argument _ | J.Parse_error _ | Sys_error _ | K.Incomparable _)
    ->
      Ok false
  | exception e -> Error (Printexc.to_string e)

(* Bundled designs whose damaged sources the front end must diagnose. *)
let gate_sources =
  [ Workloads.Fir_mj.unrestricted_source;
    Workloads.Traffic_mj.source;
    Workloads.Elevator_mj.source;
    Workloads.Uart_mj.source;
    Workloads.Fig8_mj.refined_blocks_source ]

(* ---- generators -------------------------------------------------- *)

let arbitrary_data =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ map (fun n -> Dt.Int n) small_signed_int;
        map (fun b -> Dt.Real (Int64.float_of_bits b)) ui64;
        map (fun b -> Dt.Bool b) bool;
        map (fun s -> Dt.Str s) (small_string ~gen:printable);
        map (fun l -> Dt.Int_array (Array.of_list l))
          (small_list small_signed_int);
        return Dt.Absent ]
  in
  let data =
    oneof [ scalar; map (fun l -> Dt.Tuple l) (list_size (int_range 0 4) scalar) ]
  in
  QCheck.make
    ~print:(fun v -> J.to_string (Cd.value_json v))
    (oneof [ map (fun d -> D.Def d) data; return D.Bottom ])

(* ---- the streamed encoder against the tree encoding -------------- *)

(* Printable strings mixed with every escaped character, control bytes
   and high bytes. *)
let awkward_string =
  let open QCheck.Gen in
  string_size (int_range 0 6)
    ~gen:
      (oneof
         [ printable;
           oneofl
             [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '\200' ]
         ])

let any_int =
  QCheck.Gen.(oneof [ small_signed_int; int; oneofl [ min_int; max_int; -1 ] ])

let awkward_value =
  let open QCheck.Gen in
  let real =
    oneof
      [ map Int64.float_of_bits ui64;
        oneofl
          [ nan; -0.0; infinity; neg_infinity; 1e15; -2.5e-300;
            Int64.float_of_bits 0x7ff0000000deadL;
            Int64.float_of_bits 0xfff8000000000001L ] ]
  in
  let scalar =
    oneof
      [ map (fun n -> Dt.Int n) any_int;
        map (fun f -> Dt.Real f) real;
        map (fun b -> Dt.Bool b) bool;
        map (fun s -> Dt.Str s) awkward_string;
        map (fun a -> Dt.Int_array a) (array_size (int_range 0 4) any_int);
        return Dt.Absent ]
  in
  let data =
    oneof
      [ scalar;
        map (fun l -> Dt.Tuple l) (list_size (int_range 0 3) scalar);
        map
          (fun l -> Dt.Tuple [ Dt.Tuple l ])
          (list_size (int_range 0 2) scalar) ]
  in
  frequency [ (5, map (fun d -> D.Def d) data); (1, return D.Bottom) ]

(* An opaque section (supervisor, monitor, machine): any tree but
   floats, whose decimal rendering is not meant to round-trip. *)
let opaque_tree =
  let open QCheck.Gen in
  sized_size (int_range 0 3)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ map (fun k -> J.Int k) any_int;
               map (fun s -> J.Str s) awkward_string;
               map (fun b -> J.Bool b) bool;
               return J.Null ]
         in
         if n = 0 then leaf
         else
           oneof
             [ leaf;
               map
                 (fun l -> J.List l)
                 (list_size (int_range 0 3) (self (n - 1)));
               map
                 (fun l -> J.Obj l)
                 (list_size (int_range 0 3)
                    (pair awkward_string (self (n - 1))))
             ])

(* A causal section over [n_nets] nets that passes [Causal.of_json]'s
   checks: a random subset of the retention window's uids in push
   order, nets inside the graph, reads of earlier events (or ⊥),
   instants within the log's; tags, blocks and values are awkward. *)
let causal_section n_nets =
  let open QCheck.Gen in
  let net = if n_nets = 0 then return 0 else int_range 0 (n_nets - 1) in
  let nets_or_none g = if n_nets = 0 then return [] else g in
  let ints a = J.List (Array.to_list (Array.map (fun n -> J.Int n) a)) in
  let* capacity = int_range 1 8 and* pushed = int_range 0 12 in
  let lo = max 0 (pushed - capacity) in
  let* kept = list_repeat (pushed - lo) bool in
  let uids =
    List.filter_map Fun.id
      (List.mapi (fun k keep -> if keep then Some (lo + k) else None) kept)
  in
  let* instant = int_range (if uids = [] then -1 else 0) 4
  and* truncated = small_nat
  and* writers = array_repeat n_nets (int_range (-1) (pushed - 1)) in
  let event uid =
    let* instant = int_range 0 (max 0 instant)
    and* kind = oneofl [ C.Eval; C.Input; C.Delay; C.Folded ]
    and* block = oneof [ return (-1); small_nat; return max_int ]
    and* tag = oneof [ return ""; awkward_string ]
    and* src = if n_nets = 0 then return (-1) else oneof [ return (-1); net ]
    and* reads =
      nets_or_none
        (list_size (int_range 0 3) (pair net (int_range (-1) (uid - 1))))
    and* writes =
      nets_or_none (list_size (int_range 0 3) (pair net awkward_value))
    in
    return
      { C.ev_uid = uid;
        ev_instant = instant;
        ev_kind = kind;
        ev_block = block;
        ev_tag = tag;
        ev_src = src;
        ev_reads =
          Array.of_list (List.concat_map (fun (n, u) -> [ n; u ]) reads);
        ev_write_nets = Array.of_list (List.map fst writes);
        ev_write_values = Array.of_list (List.map snd writes) }
  in
  let* events = flatten_l (List.map event uids) in
  return
    (J.Obj
       [ ("capacity", J.Int capacity);
         ("pushed", J.Int pushed);
         ("instant", J.Int instant);
         ("truncated", J.Int truncated);
         ("writers", ints writers);
         ( "events",
           J.List (List.map (C.event_json ~render:Cd.value_json) events) ) ])

(* A random artifact as the tree the format describes, assembled from
   the tree codecs ([Causal.event_json], [Codec.value_json]); shapes
   are consistent where [of_json] checks them (the recording's instant
   and net counts, producers and ports, and the causal section). *)
let artifact_tree =
  let open QCheck.Gen in
  let ints a = J.List (Array.to_list (Array.map (fun n -> J.Int n) a)) in
  let vec a = J.List (Array.to_list (Array.map Cd.value_json a)) in
  let nullable f = function None -> J.Null | Some x -> f x in
  let bindings l =
    J.List (List.map (fun (n, v) -> J.List [ J.Str n; Cd.value_json v ]) l)
  in
  let pairs l =
    J.List (List.map (fun (n, k) -> J.List [ J.Str n; J.Int k ]) l)
  in
  let* n_nets = int_range 0 5 and* instants = int_range 0 3 in
  let net = if n_nets = 0 then return 0 else int_range 0 (n_nets - 1) in
  let nets = array_repeat n_nets awkward_value in
  let stream_step =
    list_size (int_range 0 2) (pair awkward_string awkward_value)
  in
  let* system = awkward_string
  and* strategy = oneofl [ Fx.Chaotic; Fx.Scheduled; Fx.Worklist; Fx.Fused ]
  and* policy =
    opt
      (oneof
         [ oneofl [ S.Fail_fast; S.Hold_last; S.Absent ];
           map (fun n -> S.Retry n) small_nat ])
  and* escalate_after = small_nat
  and* inject =
    list_size (int_range 0 2)
      (let* block = small_nat and* instant = small_nat and* first_only = bool in
       let* kind = oneofl [ I.Trap; I.Cycle_spike; I.Alloc_storm ] in
       let* persistence = oneofl [ I.Transient; I.Persistent ] in
       return
         { I.i_block = block;
           i_kind = kind;
           i_instant = instant;
           i_persistence = persistence;
           i_first_only = first_only })
  and* seed = any_int
  and* fingerprint = awkward_string
  and* evaluations = any_int
  and* delays = array_size (int_range 0 3) awkward_value
  and* state_nets = nets
  and* prev_nets = nets
  and* supervisor = opt opaque_tree
  and* injector = opt (pair any_int any_int)
  and* counters = opt (list_size (int_range 0 3) (pair awkward_string any_int))
  and* monitor = opt opaque_tree
  and* machine = opt opaque_tree
  and* recorded = bool in
  let* recording =
    if not recorded then return None
    else
      let* stream = list_repeat instants stream_step
      and* extra = list_size (int_range 0 2) stream_step
      and* rc_nets = list_repeat instants nets
      and* outputs = list_repeat instants stream_step
      and* iterations = array_repeat instants any_int
      and* fatal = opt awkward_string
      and* blocks = array_size (int_range 0 3) awkward_string in
      let* producers =
        array_repeat n_nets (int_range (-3) (Array.length blocks - 1))
      and* inputs = list_size (int_range 0 2) (pair awkward_string net)
      and* ports = list_size (int_range 0 2) (pair awkward_string net) in
      let inputs = if n_nets = 0 then [] else inputs
      and ports = if n_nets = 0 then [] else ports in
      return
        (Some
           (J.Obj
              [ ("stream", J.List (List.map bindings (stream @ extra)));
                ("nets", J.List (List.map vec rc_nets));
                ("out_stream", J.List (List.map bindings outputs));
                ("iterations", ints iterations);
                ("fatal", nullable (fun s -> J.Str s) fatal);
                ( "blocks",
                  J.List (Array.to_list (Array.map (fun s -> J.Str s) blocks))
                );
                ("producers", ints producers);
                ("inputs", pairs inputs);
                ("outputs", pairs ports) ]))
  in
  let* causal =
    let section = causal_section n_nets in
    (* a recording needs its causal section *)
    if recording <> None then map Option.some section else opt section
  in
  return
    (J.Obj
       [ ("version", J.Int 3);
         ("system", J.Str system);
         ("strategy", J.Str (Fx.strategy_name strategy));
         ("policy", nullable (fun p -> J.Str (S.policy_name p)) policy);
         ("escalate_after", J.Int escalate_after);
         ("inject", J.List (List.map Cd.spec_json inject));
         ("seed", J.Int seed);
         ("fingerprint", J.Str fingerprint);
         ("instant", J.Int instants);
         ("evaluations", J.Int evaluations);
         ("delays", vec delays);
         ("nets", vec state_nets);
         ("prev_nets", vec prev_nets);
         ("supervisor", nullable Fun.id supervisor);
         ( "injector",
           nullable
             (fun (i, f) -> J.Obj [ ("instant", J.Int i); ("fired", J.Int f) ])
             injector );
         ("counters", nullable pairs counters);
         ("monitor", nullable Fun.id monitor);
         ("causal", nullable Fun.id causal);
         ("machine", nullable Fun.id machine);
         ("recording", nullable Fun.id recording) ])

(* A generated net whose causal ring has wrapped: every one of the
   ring's [capacity] slots holds a retained event. *)
let full_ring_capture () =
  let g =
    Workloads.Netgen.generate ~inputs:3 ~delays:2 ~seed:5 ~depth:6 ~width:8 ()
  in
  let cz = C.create ~n_nets:(G.compile g).G.n_nets () in
  let sim = Sim.create ~strategy:Fx.Worklist ~causal:cz g in
  let stream = Array.of_list (Workloads.Netgen.stimulus g ~instants:64) in
  let t = ref 0 in
  while C.pushed cz <= C.capacity cz do
    ignore (Sim.step sim stream.(!t mod Array.length stream));
    incr t
  done;
  (sim, K.capture ~system:"full-ring" sim)

let suite =
  [
    (* ---- shared IEEE-754 codec ---- *)
    case "float bits codec is bit-exact on the special values" (fun () ->
        List.iter
          (fun f ->
            Alcotest.(check bool)
              (Printf.sprintf "bits 0x%Lx" (Int64.bits_of_float f))
              true (bits_roundtrip f))
          [ 0.0; -0.0; 1.5; -3.25; Float.pi; min_float; max_float;
            epsilon_float; infinity; neg_infinity; nan;
            (* a non-default NaN payload *)
            Int64.float_of_bits 0x7ff0000000deadL ]);
    qcase ~count:200 "every 64-bit pattern rides through float_bits"
      (QCheck.make ~print:(Printf.sprintf "0x%Lx") QCheck.Gen.ui64)
      (fun b -> bits_roundtrip (Int64.float_of_bits b));
    qcase ~count:200 "domain values round-trip through the codec"
      arbitrary_data
      (fun v -> Cd.value_eq v (Cd.value_of_json (Cd.value_json v)));

    qcase ~count:300 "the streamed artifact equals the tree encoding's bytes"
      (QCheck.make ~print:J.to_string artifact_tree)
      (fun tree ->
        let t = K.of_json tree in
        let path = Filename.temp_file "ck-stream" ".json" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        K.save t path;
        let bytes = read_file path in
        if bytes <> enveloped (J.to_string tree) then
          QCheck.Test.fail_reportf "saved %S" bytes;
        K.equal (K.load path) t);
    case "saving a full causal ring allocates nothing per event" (fun () ->
        let _, ck = full_ring_capture () in
        let retained = List.length (K.events ck) in
        Alcotest.(check int) "the ring is full" 65536 retained;
        let path = Filename.temp_file "ck-alloc" ".json" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        K.save ck path;
        let before = Gc.minor_words () in
        K.save ck path;
        let per_event =
          (Gc.minor_words () -. before) /. float_of_int retained
        in
        if per_event > 0.5 then
          Alcotest.failf "%.2f minor words per retained event (bound 0.5)"
            per_event);
    case "the monitor is charged for the whole save" (fun () ->
        let _, ck = full_ring_capture () in
        let t0 = Sys.time () in
        ignore (K.equal ck ck);
        (* two encodings of the 65,536-event artifact *)
        let encodes = Sys.time () -. t0 in
        let path = Filename.temp_file "ck-monitor" ".json" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let m = M.create () in
        K.save ~monitor:m ck path;
        let writes, bytes, seconds, _ = M.checkpoint_stats m in
        Alcotest.(check int) "one write" 1 writes;
        Alcotest.(check int) "its bytes" (String.length (read_file path)) bytes;
        if seconds < encodes /. 4.0 then
          Alcotest.failf
            "save charged %.4f s, less than half of one encoding (%.4f s)"
            seconds (encodes /. 2.0));
    case "captures of one simulator share one fingerprint" (fun () ->
        let sim, first = full_ring_capture () in
        let second = K.capture ~system:"full-ring" sim in
        Alcotest.(check string) "the compiled graph's"
          (G.fingerprint (Sim.graph sim)) (K.fingerprint first);
        Alcotest.(check bool) "computed once, not per capture" true
          (K.fingerprint first == K.fingerprint second));

    (* ---- simulator state ---- *)
    case "simulate state export/import resumes bit-identically" (fun () ->
        let stream = chain_stream 8 in
        let a = Sim.create ~strategy:Fx.Worklist (chain_graph ()) in
        List.iter (fun i -> ignore (Sim.step a i)) (List.filteri (fun i _ -> i < 4) stream);
        let st = Sim.export_state a in
        let b = Sim.create ~strategy:Fx.Worklist (chain_graph ()) in
        Sim.import_state b st;
        let rest = drop 4 stream in
        let out_a = List.map (Sim.step a) rest in
        let out_b = List.map (Sim.step b) rest in
        Alcotest.(check bool) "suffixes agree" true (outputs_eq out_a out_b);
        Alcotest.(check int) "instant restored" (Sim.instant_count a)
          (Sim.instant_count b));
    case "simulate import_state rejects a foreign graph" (fun () ->
        let a = Sim.create (chain_graph ()) in
        ignore (Sim.step a [ ("x", D.int 1) ]);
        let st = Sim.export_state a in
        let g = G.create "other" in
        let x = G.add_input g "x" in
        let y = G.add_output g "y" in
        G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port y 0);
        let b = Sim.create g in
        (match Sim.import_state b st with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ()));

    (* ---- supervisor state ---- *)
    case "supervisor state round-trips, quarantine included" (fun () ->
        let g = chain_graph () in
        let sim, injector =
          attach ~policy:S.Hold_last ~escalate_after:2
            ~inject:[ persistent_trap ~block:0 ~instant:1 ]
            ~strategy:Fx.Scheduled g
        in
        let _ = run_to_end sim injector (chain_stream 6) in
        let sup = Option.get (Sim.supervisor sim) in
        Alcotest.(check bool) "quarantined" true (S.is_quarantined sup 0);
        let st = S.state_json sup in
        let sup' = S.create ~policy:S.Hold_last ~escalate_after:2 () in
        S.attach sup' (G.compile g);
        S.restore_state sup' st;
        Alcotest.(check string) "state identical"
          (J.to_string st)
          (J.to_string (S.state_json sup'));
        Alcotest.(check bool) "quarantine restored" true
          (S.is_quarantined sup' 0);
        Alcotest.(check int) "fault log restored" (S.fault_count sup)
          (S.fault_count sup'));
    case "supervisor state_json refuses an open instant" (fun () ->
        let sup = S.create () in
        S.attach sup (G.compile (chain_graph ()));
        S.begin_instant sup;
        match S.state_json sup with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());

    (* ---- monitor and causal state ---- *)
    case "monitor state round-trips through JSON" (fun () ->
        let m = M.create () in
        let sim = Sim.create ~monitor:m (chain_graph ()) in
        List.iter (fun i -> ignore (Sim.step sim i)) (chain_stream 5);
        let st = M.state_json m in
        let m' = M.create () in
        M.restore_state m' st;
        Alcotest.(check string) "state identical" (J.to_string st)
          (J.to_string (M.state_json m'));
        Alcotest.(check int) "instants" (M.instants m) (M.instants m'));
    case "a causal snapshot and its copy keep the continuable log"
      (fun () ->
        let g = chain_graph () in
        let cz = C.create ~n_nets:(G.compile g).G.n_nets () in
        let sim = Sim.create ~causal:cz g in
        List.iter (fun i -> ignore (Sim.step sim i)) (chain_stream 4);
        let snap = C.snapshot cz in
        let cz' = C.copy snap in
        let render = C.event_json ~render:Cd.value_json in
        let events c =
          List.map (fun e -> J.to_string (render e)) (C.events c)
        in
        List.iter
          (fun (what, c) ->
            Alcotest.(check int) (what ^ " pushed") (C.pushed cz) (C.pushed c);
            Alcotest.(check (list string)) (what ^ " events") (events cz)
              (events c))
          [ ("snapshot", snap); ("copy", cz') ];
        Alcotest.check_raises "a snapshot records nothing"
          (Invalid_argument "Causal.begin_instant: a snapshot records nothing")
          (fun () -> C.begin_instant snap);
        C.begin_instant cz';
        Alcotest.check_raises "no copy mid-instant"
          (Invalid_argument "Causal.copy: instant open") (fun () ->
            ignore (C.copy cz'));
        let mid = C.snapshot cz' in
        Alcotest.(check int) "a mid-instant snapshot keeps the events"
          (C.pushed cz) (C.pushed mid);
        let buf = Buffer.create 256 in
        C.write_json ~render:Cd.write_value buf mid;
        match J.member "writers" (J.parse (Buffer.contents buf)) with
        | Some (J.List (_ :: _ as ws)) ->
            Alcotest.(check bool) "and forgets the writer registers" true
              (List.for_all (( = ) (J.Int (-1))) ws)
        | _ -> Alcotest.fail "no writer registers in the section");

    (* ---- checkpoint round-trip differentials ---- *)
    case "resume from a mid-run checkpoint is bit-identical" (fun () ->
        let g = chain_graph () in
        let stream = chain_stream 10 in
        List.iter
          (fun strategy ->
            let ck, outs, final, fatal =
              run_capturing ~policy:(S.Retry 2)
                ~inject:[ persistent_trap ~block:1 ~instant:3 ]
                ~causal:true ~strategy ~at:5 g stream
            in
            let _, start, routs, rfinal, rfatal = resume_and_run ck g stream in
            Alcotest.(check bool)
              (Fx.strategy_name strategy ^ " converged")
              true
              (converged ~oracle_outs:outs ~oracle_final:final
                 ~oracle_fatal:fatal ~start ~routs ~final:rfinal ~rfatal))
          [ Fx.Chaotic; Fx.Scheduled; Fx.Worklist; Fx.Fused ]);
    case "mid-quarantine resume carries the quarantine set" (fun () ->
        let g = chain_graph () in
        let stream = chain_stream 10 in
        let ck, outs, final, fatal =
          run_capturing ~policy:S.Hold_last ~escalate_after:2
            ~inject:[ persistent_trap ~block:0 ~instant:1 ]
            ~strategy:Fx.Worklist ~at:6 g stream
        in
        let r, start, routs, rfinal, rfatal = resume_and_run ck g stream in
        Alcotest.(check bool) "resumed supervisor mid-quarantine" true
          (S.is_quarantined (Option.get r.K.r_supervisor) 0);
        Alcotest.(check bool) "converged" true
          (converged ~oracle_outs:outs ~oracle_final:final
             ~oracle_fatal:fatal ~start ~routs ~final:rfinal ~rfatal));
    case "fail-fast abort: boundary checkpoint resumes and re-aborts"
      (fun () ->
        (* the CLI's abort path: a checkpoint captured at the last
           boundary before the Fatal, saved to disk, loaded post-mortem,
           and the resumed run re-aborts identically *)
        let g = chain_graph () in
        let stream = chain_stream 8 in
        let ck, outs, final, fatal =
          run_capturing ~policy:S.Fail_fast
            ~inject:[ persistent_trap ~block:1 ~instant:4 ]
            ~strategy:Fx.Fused ~at:3 g stream
        in
        Alcotest.(check bool) "oracle aborted" true (Option.is_some fatal);
        Alcotest.(check int) "aborted at the faulty instant" 4
          (List.length outs);
        let path = Filename.temp_file "ck-abort" ".json" in
        let m = M.create () in
        K.save ~monitor:m ck path;
        let writes, bytes, _, failures = M.checkpoint_stats m in
        Alcotest.(check int) "one write accounted" 1 writes;
        Alcotest.(check bool) "bytes accounted" true (bytes > 0);
        Alcotest.(check int) "no failures" 0 failures;
        let ck' = K.load path in
        Sys.remove path;
        Alcotest.(check bool) "artifact identical" true (K.equal ck ck');
        let _, start, routs, rfinal, rfatal = resume_and_run ck' g stream in
        Alcotest.(check bool) "re-aborts identically" true
          (converged ~oracle_outs:outs ~oracle_final:final
             ~oracle_fatal:fatal ~start ~routs ~final:rfinal ~rfatal));
    case "failed checkpoint write raises the data-loss flag" (fun () ->
        let g = chain_graph () in
        let sim = Sim.create g in
        ignore (Sim.step sim [ ("x", D.int 1) ]);
        let ck = K.capture ~system:"test" sim in
        let m = M.create () in
        (match K.save ~monitor:m ck "/nonexistent-dir/ck.json" with
        | () -> Alcotest.fail "expected Sys_error"
        | exception Sys_error _ -> ());
        let _, _, _, failures = M.checkpoint_stats m in
        Alcotest.(check int) "failure accounted" 1 failures;
        Alcotest.(check int) "data_loss flag raised" 1
          (jint [ "data_loss"; "checkpoint_write_failures" ] (M.snapshot m)));
    case "a failed save leaves the previous checkpoint byte-identical"
      (fun () ->
        let sim = Sim.create (chain_graph ()) in
        ignore (Sim.step sim [ ("x", D.int 1) ]);
        let path = Filename.temp_file "ck-durable" ".json" in
        K.save (K.capture ~system:"test" sim) path;
        let read () = In_channel.with_open_bin path In_channel.input_all in
        let before = read () in
        ignore (Sim.step sim [ ("x", D.int 2) ]);
        (* a directory where the temporary file would go: the write fails
           before the target is touched *)
        let blocker = Asr.Durable.temp_path path in
        Sys.mkdir blocker 0o755;
        let m = M.create () in
        (match K.save ~monitor:m (K.capture ~system:"test" sim) path with
        | () -> Alcotest.fail "expected Sys_error"
        | exception Sys_error _ -> ());
        Alcotest.(check string) "previous file intact" before (read ());
        let _, _, _, failures = M.checkpoint_stats m in
        Alcotest.(check int) "failure accounted" 1 failures;
        Sys.rmdir blocker;
        K.save (K.capture ~system:"test" sim) path;
        Alcotest.(check bool) "the next save lands" true (read () <> before);
        Alcotest.(check bool) "no temporary left" false (Sys.file_exists blocker);
        Sys.remove path);
    case "a save whose rename fails removes its temporary file" (fun () ->
        let sim = Sim.create (chain_graph ()) in
        let dir = Filename.temp_file "ck-dir" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        (* the target is a non-empty directory: rename cannot replace it *)
        let target = Filename.concat dir "ck.json" in
        Sys.mkdir target 0o755;
        let inside = Filename.concat target "keep" in
        Out_channel.with_open_bin inside (fun oc -> output_string oc "x");
        let m = M.create () in
        (match K.save ~monitor:m (K.capture ~system:"test" sim) target with
        | () -> Alcotest.fail "expected Sys_error"
        | exception Sys_error _ -> ());
        Alcotest.(check (list string)) "only the target in the directory"
          [ "ck.json" ] (Array.to_list (Sys.readdir dir));
        let _, _, _, failures = M.checkpoint_stats m in
        Alcotest.(check int) "failure accounted" 1 failures;
        Sys.remove inside;
        Sys.rmdir target;
        Sys.rmdir dir);
    case "of_json rejects an unsupported version" (fun () ->
        let sim = Sim.create (chain_graph ()) in
        let ck = K.capture ~system:"test" sim in
        (* 2 is the version before block health moved to the
           supervisor section *)
        List.iter
          (fun v ->
            let tampered =
              map_member "version" (fun _ -> J.Int v) (K.to_json ck)
            in
            match K.of_json tampered with
            | _ -> Alcotest.failf "version %d accepted" v
            | exception Invalid_argument m ->
                Alcotest.(check bool) ("named: " ^ m) true
                  (contains
                     ~substring:
                       (Printf.sprintf "unsupported artifact version %d" v)
                     m))
          [ 2; 999 ]);
    qcase ~count:200 "a corrupt causal section fails resume with a named error"
      QCheck.(triple small_nat small_nat small_nat)
      (fun (which, i, d) ->
        let g = chain_graph () in
        let n_nets = (G.compile g).G.n_nets in
        let cz = C.create ~capacity:16 ~n_nets () in
        let sim = Sim.create ~strategy:Fx.Scheduled ~causal:cz g in
        List.iter (fun inp -> ignore (Sim.step sim inp)) (chain_stream 6);
        let j = K.to_json (K.capture ~system:"test" sim) in
        let cases = corruptions ~pushed:(C.pushed cz) ~n_nets in
        let name, corrupt = List.nth cases (which mod List.length cases) in
        let bad = map_member "causal" (corrupt i d) j in
        let rejected what f =
          match f () with
          | _ -> QCheck.Test.fail_reportf "%s: %s" name what
          | exception Invalid_argument m ->
              String.starts_with ~prefix:"Causal.of_json: " m
              || QCheck.Test.fail_reportf "%s: unnamed error %S" name m
        in
        (* the decoder itself rejects the section, so no resume or
           query ever meets it *)
        rejected "loaded" (fun () -> K.of_json bad)
        && rejected "resumed" (fun () -> K.resume (K.of_json bad) g));
    case "of_json rejects a read that is not a pair" (fun () ->
        let section =
          J.parse
            ({|{"capacity":4,"pushed":1,"instant":0,"truncated":0,|}
            ^ {|"writers":[0,-1],"events":[{"uid":0,"instant":0,|}
            ^ {|"kind":"eval","block":0,"reads":[[1]],"writes":[[0,7]]}]}|})
        in
        Alcotest.check_raises "odd reads"
          (Invalid_argument "Causal.of_json: event 0: malformed read")
          (fun () ->
            ignore
              (C.of_json
                 ~unrender:(function J.Int n -> n | _ -> 0)
                 section)));
    case "a capture is a snapshot: later steps and queries leave its bytes"
      (fun () ->
        (* a ring of 8 events holds under two chain instants *)
        let g = chain_graph () in
        let n_nets = (G.compile g).G.n_nets in
        let cz = C.create ~capacity:8 ~n_nets () in
        let sim = Sim.create ~strategy:Fx.Worklist ~causal:cz g in
        let stream = chain_stream 12 in
        List.iter
          (fun i -> ignore (Sim.step sim i))
          (List.filteri (fun k _ -> k < 6) stream);
        let ck = K.capture ~system:"test" sim in
        let at_capture = saved ck and pushed = C.pushed cz in
        List.iter (fun i -> ignore (Sim.step sim i)) (drop 6 stream);
        Alcotest.(check bool) "the live ring moved past the capture" true
          (C.pushed cz > pushed + C.capacity cz);
        let truncated =
          List.concat_map
            (fun net ->
              List.filter_map
                (fun instant ->
                  let sl = K.why ck ~net ~instant in
                  if sl.C.sl_truncated then Some (net, instant) else None)
                (List.init 6 Fun.id))
            (List.init n_nets Fun.id)
        in
        Alcotest.(check bool) "some slice is truncated" true (truncated <> []);
        Alcotest.(check int) "queries count nothing into the artifact" 0
          (snd (K.data_loss ck));
        Alcotest.(check string) "saved bytes unchanged" at_capture (saved ck));
    case "one loaded artifact resumes twice, each run as the uninterrupted one"
      (fun () ->
        let g = chain_graph () in
        let stream = chain_stream 10 in
        let ck, outs, final, fatal =
          run_capturing ~policy:(S.Retry 2)
            ~inject:[ persistent_trap ~block:1 ~instant:3 ]
            ~causal:true ~strategy:Fx.Worklist ~at:5 g stream
        in
        let path = Filename.temp_file "ck-twice" ".json" in
        K.save ck path;
        let loaded = K.load path in
        Sys.remove path;
        let bytes = K.to_json loaded |> J.to_string in
        List.iter
          (fun run ->
            let _, start, routs, rfinal, rfatal = resume_run loaded g stream in
            Alcotest.(check bool) (run ^ " resume converged") true
              (converged ~oracle_outs:outs ~oracle_final:final
                 ~oracle_fatal:fatal ~start ~routs ~final:rfinal ~rfatal))
          [ "first"; "second" ];
        Alcotest.(check string) "the artifact is unchanged" bytes
          (J.to_string (K.to_json loaded)));
    qcase ~count:40
      "random systems: resumed campaigns converge under every policy"
      Test_random_graphs.arbitrary_spec
      (fun spec ->
        let g = Test_random_graphs.build spec in
        let stream =
          List.map
            (fun bindings ->
              List.map (fun (n, v) -> (n, v)) bindings)
            (Test_random_graphs.stimuli spec)
        in
        let n = List.length stream in
        if n < 2 then true
        else
          let n_blocks = Array.length (G.compile g).G.c_blocks in
          let inject =
            I.plan ~seed:spec.Test_random_graphs.sp_seed ~n_blocks
              ~instants:n ~n_faults:2 ~first_only:false ()
          in
          let strategy, policy =
            match spec.Test_random_graphs.sp_seed mod 4 with
            | 0 -> (Fx.Scheduled, S.Hold_last)
            | 1 -> (Fx.Worklist, S.Retry 1)
            | 2 -> (Fx.Fused, S.Absent)
            | _ -> (Fx.Chaotic, S.Hold_last)
          in
          let at = 1 + (spec.Test_random_graphs.sp_seed mod (n - 1)) in
          let ck, outs, final, fatal =
            run_capturing ~policy ~inject ~strategy ~at g stream
          in
          let _, start, routs, rfinal, rfatal = resume_and_run ck g stream in
          converged ~oracle_outs:outs ~oracle_final:final ~oracle_fatal:fatal
            ~start ~routs ~final:rfinal ~rfatal);

    case "a resumed run with a fresh monitor reports the supervisor's health"
      (fun () ->
        let oracle, resumed = resumed_with_fresh_monitor () in
        let health m = J.member "health" (M.dump ~reason:"end-of-run" m) in
        Alcotest.(check string) "health of the uninterrupted run"
          (J.to_string (Option.get (health oracle)))
          (J.to_string (Option.get (health resumed)));
        match health resumed with
        | Some (J.List [ row ]) ->
            Alcotest.(check (list int)) "faults, streak" [ 3; 3 ]
              [ jint [ "faults" ] row; jint [ "streak" ] row ];
            Alcotest.(check bool) "quarantined" true
              (J.member "quarantined" row = Some (J.Bool true))
        | _ -> Alcotest.fail "expected one health row");
    case "a resumed run numbers its flight records from the resume instant"
      (fun () ->
        let _, resumed = resumed_with_fresh_monitor () in
        Alcotest.(check (list int)) "flight records" [ 4; 5 ]
          (flight_instants resumed);
        Alcotest.(check int) "dump instant" 5
          (jint [ "instant" ] (M.dump ~reason:"end-of-run" resumed)));
    qcase ~count:40
      "random netgen fault plans: health is the fault log's, and resumes"
      QCheck.(
        pair
          (triple (int_bound 10_000) (int_bound 3) (int_bound 3))
          (pair (int_range 1 4) bool))
      (fun ((seed, pol, strat), (n_faults, first_only)) ->
        let policy =
          List.nth [ S.Fail_fast; S.Hold_last; S.Absent; S.Retry 1 ] pol
        in
        let strategy =
          List.nth [ Fx.Chaotic; Fx.Scheduled; Fx.Worklist; Fx.Fused ] strat
        in
        (* Netgen names blocks by function, so names repeat *)
        let g = Workloads.Netgen.generate ~seed ~depth:3 ~width:4 () in
        let c = G.compile g in
        let n = 8 in
        let stream = Workloads.Netgen.stimulus g ~instants:n in
        let inj =
          I.make
            (I.plan ~seed ~n_blocks:(Array.length c.G.c_blocks) ~instants:n
               ~n_faults ~first_only ())
        in
        let sup = S.create ~policy () in
        let sim = Sim.create ~strategy ~supervisor:sup (I.instrument inj g) in
        (* a checkpoint at every boundary; no monitor in the oracle *)
        let cks = ref [] and closed = ref 0 in
        let boundary () =
          cks := K.capture ~system:"netgen" ~injector:inj sim :: !cks
        in
        (try
           List.iter
             (fun inputs ->
               boundary ();
               ignore (Sim.step sim inputs);
               I.tick inj;
               incr closed)
             stream;
           boundary ()
         with S.Fatal _ -> ());
        let oracle = S.health sup in
        if oracle <> health_of_log c (S.faults sup) ~closed:!closed then
          QCheck.Test.fail_reportf "health differs from the fault log's";
        List.iter
          (fun ck ->
            let k = K.instant ck in
            let mon = M.create () in
            let r = K.resume ~monitor:mon ck g in
            ignore (run_to_end r.K.r_sim r.K.r_injector (drop k stream));
            if S.health (Option.get r.K.r_supervisor) <> oracle then
              QCheck.Test.fail_reportf "resumed at %d: supervisor health" k;
            if J.member "health" (M.snapshot mon) <> Some (S.health_json sup)
            then QCheck.Test.fail_reportf "resumed at %d: monitor health" k;
            if flight_instants mon <> List.init (!closed - k) (fun i -> k + i)
            then QCheck.Test.fail_reportf "resumed at %d: flight records" k)
          !cks;
        true);
    case "resume rejects a checkpoint of another graph" (fun () ->
        (* same topology and net count: only the fingerprint tells the
           gain2 chain from the gain3 one *)
        let sim = Sim.create (chain_graph ~name:"chain-a" ()) in
        List.iter (fun i -> ignore (Sim.step sim i)) (chain_stream 3);
        let ck = K.capture ~system:"chain-a" sim in
        let other = chain_graph ~name:"other-system" ~gain:3 () in
        (match K.resume ck other with
        | _ -> Alcotest.fail "resumed on another graph"
        | exception Invalid_argument m ->
            Alcotest.(check bool) ("named: " ^ m) true
              (contains ~substring:"fingerprint" m));
        let r = K.resume ck (chain_graph ~name:"chain-a" ()) in
        Alcotest.(check int) "the same graph resumes" 3
          (Sim.instant_count r.K.r_sim));
    qcase ~count:300
      "damaged artifacts fail load, resume and diff with a diagnostic"
      QCheck.(
        quad (int_bound 4) (int_bound 2) (int_bound 1_000_000)
          (int_range 1 255))
      (fun (damage, which, pos, byte) ->
        let plain, recorded, other = Lazy.force gate_artifacts in
        let ck = List.nth [ plain; recorded; other ] which in
        let bytes = saved ck in
        let n = String.length bytes in
        let name, contents, must_fail_load =
          match damage with
          | 0 -> ("truncated", String.sub bytes 0 (pos mod n), true)
          | 1 ->
              let b = Bytes.of_string bytes in
              let i = pos mod n in
              Bytes.set b i (Char.chr (Char.code bytes.[i] lxor byte));
              ("byte-flipped", Bytes.to_string b, true)
          | 2 -> ("version 1", with_version 1 ck ^ "\n", true)
          | 3 -> ("version 999", enveloped (with_version 999 ck), true)
          | _ -> ("other graph", saved other, false)
        in
        let path = Filename.temp_file "ck-damaged" ".json" in
        Out_channel.with_open_bin path (fun oc -> output_string oc contents);
        let loaded = ref None in
        let load =
          diagnosed (fun () ->
              let ck = K.load path in
              loaded := Some ck)
        in
        Sys.remove path;
        let later f =
          match !loaded with None -> Ok false | Some ck -> diagnosed (f ck)
        in
        let resume =
          later (fun ck () -> ignore (K.resume ck (chain_graph ())))
        in
        let diff =
          later (fun ck () -> ignore (K.first_divergence recorded ck))
        in
        match (load, resume, diff) with
        | Error e, _, _ | _, Error e, _ | _, _, Error e ->
            QCheck.Test.fail_reportf "%s: undiagnosed %s" name e
        | Ok true, _, _ when must_fail_load ->
            QCheck.Test.fail_reportf "%s: loaded" name
        | _, Ok true, _ when which = 2 || damage = 4 ->
            QCheck.Test.fail_reportf "%s: resumed on another graph" name
        | _ -> true);
    qcase ~count:200 "damaged MJ sources fail only with a compile diagnostic"
      QCheck.(
        quad (int_bound 4) (int_bound 3) (int_bound 1_000_000)
          (int_range 1 40))
      (fun (which, damage, pos, len) ->
        let src = List.nth gate_sources which in
        let n = String.length src in
        let i = pos mod n in
        let j = min n (i + len) in
        (* truncate, delete a span, overwrite a character, or repeat a
           span *)
        let src =
          match damage with
          | 0 -> String.sub src 0 i
          | 1 -> String.sub src 0 i ^ String.sub src j (n - j)
          | 2 ->
              let glyphs = {|{};()=+-*/<>![]0aZ.,"|} in
              String.mapi
                (fun k c ->
                  if k = i then glyphs.[len mod String.length glyphs] else c)
                src
          | _ -> String.sub src 0 j ^ String.sub src i (n - i)
        in
        match
          ignore (Mj.Typecheck.check_source ~file:"<damaged>" src);
          ignore (Javatime.Engine.refine_source ~file:"<damaged>" src)
        with
        | () -> true
        | exception Mj.Diag.Compile_error _ -> true
        | exception e ->
            QCheck.Test.fail_reportf "undiagnosed %s on:\n%s"
              (Printexc.to_string e) src);

    (* ---- machine payloads and re-application safety ---- *)
    case "machine snapshot restores a stateful reaction" (fun () ->
        let src =
          {|class Counter extends ASR {
              private int total;
              Counter() { declarePorts(1, 1); total = 0; }
              public void run() { total = total + readPort(0); writePort(0, total); }
            }|}
        in
        let elab = E.elaborate (check_src src) ~cls:"Counter" in
        Alcotest.(check int) "1+2+3" 6
          (List.fold_left (fun _ x -> react_int elab x) 0 [ 1; 2; 3 ]);
        let snap = E.machine_state_json elab in
        Alcotest.(check int) "advanced past the snapshot" 16
          (react_int elab 10);
        E.restore_machine_json elab snap;
        Alcotest.(check int) "restored: 6 + 4" 10 (react_int elab 4);
        (* the serialized payload restores too, not just the live copy *)
        E.restore_machine_json elab (J.parse (J.to_string snap));
        Alcotest.(check int) "JSON round-trip restores" 7 (react_int elab 1));
    case "re-applicable block: N applications behave as one" (fun () ->
        let src =
          {|class Acc extends ASR {
              private int total;
              Acc() { declarePorts(1, 1); total = 0; }
              public void run() { total = total + readPort(0); writePort(0, total); }
            }|}
        in
        let elab = E.elaborate (check_src src) ~cls:"Acc" in
        let block, new_instant = E.to_reapplicable_block elab in
        let apply x =
          match B.apply block [| D.int x |] with
          | [| v |] -> Option.get (D.to_int v)
          | _ -> Alcotest.fail "one output expected"
        in
        new_instant ();
        Alcotest.(check int) "first application" 5 (apply 5);
        Alcotest.(check int) "re-application is idempotent" 5 (apply 5);
        Alcotest.(check int) "third application too" 5 (apply 5);
        new_instant ();
        Alcotest.(check int) "next instant accumulates once" 8 (apply 3);
        new_instant ();
        Alcotest.(check int) "and again" 9 (apply 1));
  ]
