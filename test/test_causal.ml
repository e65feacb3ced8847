open Util
module D = Asr.Domain
module Dt = Asr.Data
module G = Asr.Graph
module B = Asr.Block
module S = Asr.Supervisor
module I = Asr.Inject
module Fx = Asr.Fixpoint
module Sim = Asr.Simulate
module T = Asr.Checkpoint
module Cd = Asr.Codec
module C = Telemetry.Causal
module J = Telemetry.Json
module N = Workloads.Netgen

(* ---- helpers ----------------------------------------------------- *)

let jget path j =
  List.fold_left
    (fun acc k ->
      match acc with
      | Some o -> J.member k o
      | None -> None)
    (Some j) path

let jint path j =
  match jget path j with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "missing int at %s" (String.concat "." path)

(* x --gain 2--> (+) --> y, with the adder's second arm fed back
   through a delay: y(t) = 2 x(t) + y(t-1). *)
let chain_graph () =
  let g = G.create "chain" in
  let x = G.add_input g "x" in
  let gn = G.add_block g (B.gain 2) in
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

let chain_stream n =
  List.init n (fun t -> [ ("x", D.int (t + 1)) ])

(* Two strict adders in a delay-free cycle: both outputs stay ⊥. *)
let stuck_graph () =
  let g = G.create "stuck" in
  let x = G.add_input g "x" in
  let a = G.add_block g B.add in
  let b = G.add_block g B.add in
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port a 0);
  G.connect g ~src:(G.out_port b 0) ~dst:(G.in_port a 1);
  G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port b 0);
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port b 1);
  let y = G.add_output g "y" in
  G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port y 0);
  g

let netgen ?(delays = 2) ?(cyclic_ratio = 0.1) seed =
  N.generate ~inputs:3 ~delays ~cyclic_ratio ~seed ~depth:4 ~width:5 ()

let run_traced ?capacity ~strategy g stream =
  let compiled = G.compile g in
  let cz = C.create ?capacity ~n_nets:compiled.G.n_nets () in
  let sim = Sim.create ~strategy ~causal:cz g in
  let outs = List.map (Sim.step sim) stream in
  (cz, sim, outs)

let suite =
  [
    (* ---- ring discipline ---- *)
    case "create validates capacity and net count" (fun () ->
        Alcotest.check_raises "capacity"
          (Invalid_argument "Causal.create: capacity must be >= 1")
          (fun () -> ignore (C.create ~capacity:0 ~n_nets:1 ()));
        let cz : unit C.t = C.create ~n_nets:0 () in
        Alcotest.(check int) "n_nets" 0 (C.n_nets cz));
    case "quiet evaluations leave no trace" (fun () ->
        let cz : int C.t = C.create ~n_nets:4 () in
        C.begin_instant cz;
        C.eval_begin cz ~block:0 ~reads:[| 1; 2 |];
        C.eval_commit cz;
        Alcotest.(check int) "pushed" 0 (C.pushed cz);
        C.eval_begin cz ~block:0 ~reads:[| 1 |];
        C.eval_write cz ~net:3 42;
        C.eval_commit cz;
        Alcotest.(check int) "pushed after write" 1 (C.pushed cz);
        C.end_instant cz);
    case "ring bounds memory and counts overwrites" (fun () ->
        let cz : int C.t = C.create ~capacity:4 ~n_nets:16 () in
        C.begin_instant cz;
        for net = 0 to 9 do
          C.record_binding cz ~kind:C.Input ~net net
        done;
        C.end_instant cz;
        Alcotest.(check int) "pushed" 10 (C.pushed cz);
        Alcotest.(check int) "retained" 4 (List.length (C.events cz));
        Alcotest.(check int) "overwrites" 6 (C.overwrites cz);
        Alcotest.(check bool) "evicted uid gone" true (C.find cz 2 = None);
        (match C.find cz 8 with
        | Some ev -> Alcotest.(check int) "retained uid" 8 ev.C.ev_uid
        | None -> Alcotest.fail "uid 8 should be retained");
        Alcotest.(check int)
          "events lists only retained" 4
          (List.length (C.events cz)));
    (* ---- recording through the simulator ---- *)
    case "instants record input and delay bindings" (fun () ->
        let cz, _, _ =
          run_traced ~strategy:Fx.Scheduled (chain_graph ()) (chain_stream 3)
        in
        let evs = C.events ~instant:1 cz in
        let has k = List.exists (fun e -> e.C.ev_kind = k) evs in
        Alcotest.(check bool) "input binding" true (has C.Input);
        Alcotest.(check bool) "delay binding" true (has C.Delay);
        let delay_ev = List.find (fun e -> e.C.ev_kind = C.Delay) evs in
        Alcotest.(check bool) "delay has source net" true
          (delay_ev.C.ev_src >= 0);
        (* The delay's read resolves to the previous instant's writer of
           the source net. *)
        (match delay_ev.C.ev_reads with
        | [| src; uid |] ->
            Alcotest.(check int) "read net is source" delay_ev.C.ev_src src;
            (match C.find cz uid with
            | Some w -> Alcotest.(check int) "writer instant" 0 w.C.ev_instant
            | None -> Alcotest.fail "delay source writer should be retained")
        | _ -> Alcotest.fail "delay binding should have one read"));
    case "slice resolves an output back to its inputs" (fun () ->
        let g = chain_graph () in
        let t = T.record ~strategy:Fx.Scheduled g (chain_stream 3) in
        let net = Option.get (T.output_net t "y") in
        let sl = T.why t ~net ~instant:0 in
        (* y(0) = 2*1 + 0 = 2 *)
        Alcotest.(check bool) "value" true (sl.C.sl_value = Some (D.int 2));
        Alcotest.(check bool) "has root" true (sl.C.sl_root >= 0);
        Alcotest.(check bool) "not truncated" false sl.C.sl_truncated;
        let kinds = List.map (fun e -> e.C.ev_kind) sl.C.sl_events in
        Alcotest.(check bool) "reaches the input binding" true
          (List.mem C.Input kinds);
        Alcotest.(check bool) "reaches the delay binding" true
          (List.mem C.Delay kinds));
    case "slice crosses delays into earlier instants" (fun () ->
        let g = chain_graph () in
        let t = T.record ~strategy:Fx.Worklist g (chain_stream 4) in
        let net = Option.get (T.output_net t "y") in
        let sl = T.why t ~net ~instant:3 in
        (* y(3) = 2(1+2+3+4) = 20 *)
        Alcotest.(check bool) "value" true (sl.C.sl_value = Some (D.int 20));
        let instants =
          List.sort_uniq compare
            (List.map (fun e -> e.C.ev_instant) sl.C.sl_events)
        in
        Alcotest.(check (list int)) "spans all instants" [ 0; 1; 2; 3 ]
          instants);
    case "slice of a stuck cyclic net reports bottom" (fun () ->
        let cz, sim, _ =
          run_traced ~strategy:Fx.Scheduled (stuck_graph ())
            [ [ ("x", D.int 1) ] ]
        in
        let vals = Sim.net_values sim in
        let net =
          (* first net that stayed bottom *)
          let rec find i = if vals.(i) = D.Bottom then i else find (i + 1) in
          find 0
        in
        let sl = C.slice cz ~net ~instant:0 in
        Alcotest.(check bool) "no value" true (sl.C.sl_value = None);
        Alcotest.(check int) "no root" (-1) sl.C.sl_root;
        Alcotest.(check bool) "not truncated (bottom is not loss)" false
          sl.C.sl_truncated);
    case "slice truncates at the retention horizon" (fun () ->
        let g = chain_graph () in
        let cz, _, _ =
          run_traced ~capacity:8 ~strategy:Fx.Scheduled g (chain_stream 12)
        in
        Alcotest.(check bool) "ring overflowed" true (C.overwrites cz > 0);
        let compiled = G.compile g in
        let _, net = compiled.G.c_outputs.(0) in
        let sl = C.slice cz ~net ~instant:11 in
        Alcotest.(check bool) "truncated" true sl.C.sl_truncated;
        Alcotest.(check bool) "counted" true (C.truncated_slices cz > 0);
        let _, trunc = C.data_loss cz in
        Alcotest.(check bool) "data_loss pair" true (trunc > 0));
    case "strategies agree on the causal structure of a slice" (fun () ->
        let g () = netgen 11 in
        let stream = N.stimulus (g ()) ~instants:5 in
        let slice_shape strategy =
          let t = T.record ~strategy (g ()) stream in
          let net = Option.get (T.output_net t "out0") in
          let sl = T.why t ~net ~instant:4 in
          ( sl.C.sl_value,
            List.sort_uniq compare
              (List.map
                 (fun e -> (e.C.ev_kind, e.C.ev_block, e.C.ev_instant))
                 sl.C.sl_events) )
        in
        let ref_shape = slice_shape Fx.Chaotic in
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (Fx.strategy_name s ^ " matches chaotic")
              true
              (slice_shape s = ref_shape))
          [ Fx.Scheduled; Fx.Worklist; Fx.Fused ]);
    case "fused runs record folded constants" (fun () ->
        let g = N.generate ~inputs:2 ~const_ratio:0.6 ~seed:7 ~depth:3 ~width:4 () in
        let stream = N.stimulus g ~instants:2 in
        let cz, sim, _ = run_traced ~strategy:Fx.Fused g stream in
        let plan = Option.get (Sim.fuse_plan sim) in
        let folded = Asr.Fuse.constant_nets plan in
        if folded <> [] then begin
          let evs = C.events ~instant:0 cz in
          let folded_nets =
            List.filter_map
              (fun e ->
                if e.C.ev_kind = C.Folded then Some e.C.ev_write_nets.(0)
                else None)
              evs
          in
          List.iter
            (fun (net, _) ->
              Alcotest.(check bool)
                (Printf.sprintf "net %d recorded as folded" net)
                true (List.mem net folded_nets))
            folded
        end);
    case "tracing does not change evaluation counts" (fun () ->
        let g = chain_graph () in
        let stream = chain_stream 6 in
        let count ~causal strategy =
          let sim =
            if causal then
              let compiled = G.compile g in
              let cz = C.create ~n_nets:compiled.G.n_nets () in
              Sim.create ~strategy ~causal:cz g
            else Sim.create ~strategy g
          in
          List.iter (fun i -> ignore (Sim.step sim i)) stream;
          Sim.block_evaluations sim
        in
        List.iter
          (fun s ->
            Alcotest.(check int)
              (Fx.strategy_name s ^ " evals")
              (count ~causal:false s) (count ~causal:true s))
          [ Fx.Chaotic; Fx.Scheduled; Fx.Worklist ]);
    (* ---- containment provenance ---- *)
    case "held substitutions carry containment tags" (fun () ->
        let g = chain_graph () in
        let inject =
          [ { I.i_block = 1; i_kind = I.Trap; i_instant = 2;
              i_persistence = I.Transient; i_first_only = false } ]
        in
        let t =
          T.record ~strategy:Fx.Scheduled ~policy:S.Hold_last ~inject g
            (chain_stream 4)
        in
        Alcotest.(check int) "one fault" 1 (T.fault_count t);
        let tagged =
          List.filter (fun e -> e.C.ev_tag <> "") (T.events t)
        in
        Alcotest.(check bool) "tagged event exists" true (tagged <> []);
        List.iter
          (fun e ->
            Alcotest.(check bool) "tag names containment" true
              (String.length e.C.ev_tag >= 9
              && String.sub e.C.ev_tag 0 9 = "contained"))
          tagged);
    case "absent policy tags substitutions as absent" (fun () ->
        let g = chain_graph () in
        let inject =
          [ { I.i_block = 0; i_kind = I.Trap; i_instant = 0;
              i_persistence = I.Transient; i_first_only = false } ]
        in
        let t =
          T.record ~strategy:Fx.Worklist ~policy:S.Absent ~inject g
            (chain_stream 2)
        in
        Alcotest.(check bool) "contained:absent recorded" true
          (List.exists
             (fun e -> e.C.ev_tag = "contained:absent")
             (T.events t)));
    (* ---- serialization ---- *)
    case "value codec is bit-exact on every constructor" (fun () ->
        let round v =
          Cd.value_of_json (J.parse (J.to_string (Cd.value_json v)))
        in
        let bit_eq a b =
          match (a, b) with
          | D.Def (Dt.Real x), D.Def (Dt.Real y) ->
              Int64.bits_of_float x = Int64.bits_of_float y
          | _ -> a = b
        in
        List.iter
          (fun v ->
            Alcotest.(check bool)
              (J.to_string (Cd.value_json v))
              true
              (bit_eq v (round v)))
          [ D.Bottom; D.int 42; D.int (-7); D.Def (Dt.Bool true);
            D.Def (Dt.Str "hi\"\\"); D.Def (Dt.Real 0.1);
            D.Def (Dt.Real (-0.0)); D.Def (Dt.Real 1e308);
            D.Def (Dt.Real Float.nan); D.Def (Dt.Real Float.infinity);
            D.Def (Dt.Int_array [| 1; 2; 3 |]);
            D.Def (Dt.Tuple [ Dt.Int 1; Dt.Real 2.5; Dt.Absent ]);
            D.Def Dt.Absent ]);
    case "event json round-trips" (fun () ->
        (* the section streams each event as [event_json] renders it,
           and decodes back to the same events *)
        let cz, _, _ =
          run_traced ~strategy:Fx.Scheduled (chain_graph ()) (chain_stream 3)
        in
        let buf = Buffer.create 1024 in
        C.write_json ~render:Cd.write_value buf cz;
        let section = J.parse (Buffer.contents buf) in
        let streamed =
          match J.member "events" section with
          | Some (J.List evs) -> List.map J.to_string evs
          | _ -> Alcotest.fail "no events in the section"
        in
        Alcotest.(check (list string)) "streamed as event_json"
          (List.map
             (fun ev -> J.to_string (C.event_json ~render:Cd.value_json ev))
             (C.events cz))
          streamed;
        let cz' = C.of_json ~unrender:Cd.value_of_json section in
        Alcotest.(check bool) "round-trip" true (C.events cz = C.events cz'));
    case "trace json round-trips" (fun () ->
        let t = T.record ~strategy:Fx.Fused (netgen 3) (N.stimulus (netgen 3) ~instants:5) in
        let t' = T.of_json (J.parse (J.to_string (T.to_json t))) in
        Alcotest.(check bool) "equal" true (T.equal t t');
        Alcotest.(check int) "instants" (T.instant t) (T.instant t'));
    case "trace save/load round-trips" (fun () ->
        let g = chain_graph () in
        let t =
          T.record ~strategy:Fx.Scheduled ~policy:S.Hold_last
            ~inject:(I.plan ~seed:5 ~n_blocks:3 ~instants:4 ())
            g (chain_stream 4)
        in
        let path = Filename.temp_file "trace" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            T.save t path;
            Alcotest.(check bool) "equal" true (T.equal t (T.load path))));
    (* ---- deterministic replay ---- *)
    case "replay is bit-identical across strategies" (fun () ->
        let stream = N.stimulus (netgen 21) ~instants:6 in
        List.iter
          (fun strategy ->
            let t = T.record ~strategy (netgen 21) stream in
            let t' = T.replay t (netgen 21) in
            Alcotest.(check bool)
              (Fx.strategy_name strategy ^ " replay equal")
              true (T.equal t t'))
          [ Fx.Chaotic; Fx.Scheduled; Fx.Worklist; Fx.Fused ]);
    case "replay of an injected campaign is bit-identical" (fun () ->
        let g () = netgen ~delays:3 33 in
        let stream = N.stimulus (g ()) ~instants:8 in
        let inject =
          I.plan ~seed:9 ~n_blocks:(G.block_count (g ())) ~instants:8
            ~n_faults:3 ()
        in
        List.iter
          (fun (strategy, policy) ->
            let t = T.record ~strategy ~policy ~inject (g ()) stream in
            let t' = T.replay t (g ()) in
            Alcotest.(check bool)
              (Fx.strategy_name strategy ^ "/" ^ S.policy_name policy)
              true (T.equal t t');
            Alcotest.(check bool) "fault logs identical" true
              (T.faults t = T.faults t'))
          [ (Fx.Scheduled, S.Hold_last); (Fx.Worklist, S.Absent);
            (Fx.Fused, S.Retry 1); (Fx.Chaotic, S.Hold_last) ]);
    case "replay reproduces a fail-fast abort" (fun () ->
        let g () = chain_graph () in
        let inject =
          [ { I.i_block = 1; i_kind = I.Trap; i_instant = 2;
              i_persistence = I.Persistent; i_first_only = false } ]
        in
        let t =
          T.record ~strategy:Fx.Scheduled ~policy:S.Fail_fast ~inject (g ())
            (chain_stream 5)
        in
        Alcotest.(check bool) "aborted" true (T.fatal t <> None);
        Alcotest.(check int) "instants before abort" 2 (T.instant t);
        Alcotest.(check bool) "replay equal" true
          (T.equal t (T.replay t (g ()))));
    case "replay rejects a recording of another graph" (fun () ->
        let t = T.record (chain_graph ()) (chain_stream 3) in
        let other =
          G.map_blocks (chain_graph ()) (fun i b ->
              if i = 0 then B.gain 3 else b)
        in
        match T.replay t other with
        | _ -> Alcotest.fail "replayed on another graph"
        | exception Invalid_argument m ->
            Alcotest.(check bool) ("named: " ^ m) true
              (contains ~substring:"fingerprint" m));
    case "an aborted recording answers queries but does not resume"
      (fun () ->
        let inject =
          [ { I.i_block = 1; i_kind = I.Trap; i_instant = 2;
              i_persistence = I.Persistent; i_first_only = false } ]
        in
        let t =
          T.record ~policy:S.Fail_fast ~inject (chain_graph ()) (chain_stream 5)
        in
        let path = Filename.temp_file "aborted" ".json" in
        T.save t path;
        let t' = T.load path in
        Sys.remove path;
        Alcotest.(check bool) "round-trips" true (T.equal t t');
        let net = Option.get (T.output_net t' "y") in
        (* y(1) = 2*2 + 2 = 6 *)
        Alcotest.(check bool) "completed instants answer" true
          ((T.why t' ~net ~instant:1).C.sl_value = Some (D.int 6));
        match T.resume t' (chain_graph ()) with
        | _ -> Alcotest.fail "resumed an aborted run"
        | exception Invalid_argument m ->
            Alcotest.(check bool) ("named: " ^ m) true
              (contains ~substring:"aborted" m));
    (* ---- first-divergence localization ---- *)
    case "identical runs have no divergence" (fun () ->
        let stream = N.stimulus (netgen 40) ~instants:5 in
        let a = T.record ~strategy:Fx.Scheduled (netgen 40) stream in
        let b = T.record ~strategy:Fx.Worklist (netgen 40) stream in
        Alcotest.(check bool) "none" true (T.first_divergence a b = None));
    case "divergence localizes a mutated block" (fun () ->
        let g = chain_graph () in
        (* corrupt the gain block (index 0): 2x becomes 2x+1 from the
           start, so the earliest cause is net(gain) at instant 0 *)
        let broken =
          G.map_blocks g (fun i b ->
              if i = 0 then
                B.map1 ~name:b.B.name (function
                  | Dt.Int v -> Dt.Int ((2 * v) + 1)
                  | d -> d)
              else b)
        in
        let a = T.record ~strategy:Fx.Scheduled g (chain_stream 4) in
        let b = T.record ~strategy:Fx.Scheduled broken (chain_stream 4) in
        match T.first_divergence a b with
        | None -> Alcotest.fail "expected a divergence"
        | Some d ->
            Alcotest.(check int) "instant" 0 d.T.d_instant;
            Alcotest.(check int) "block" 0 d.T.d_block;
            Alcotest.(check string) "producer" "gain2" d.T.d_producer;
            Alcotest.(check bool) "values differ" false
              (d.T.d_value_a = d.T.d_value_b);
            Alcotest.(check bool) "slices attached" true
              (d.T.d_slice_a <> None && d.T.d_slice_b <> None);
            (* rendering mentions the block and both values *)
            let s = T.divergence_to_string d in
            Alcotest.(check bool) "mentions producer" true
              (contains ~substring:"gain" s));
    case "divergence on a later-instant delay corruption" (fun () ->
        let g = chain_graph () in
        let broken =
          G.map_blocks g (fun i b ->
              if i = 1 then
                (* adder misbehaves only once values exceed 10 *)
                B.make ~name:b.B.name ~n_in:2 ~n_out:1 (fun ins ->
                    match (ins.(0), ins.(1)) with
                    | D.Def (Dt.Int x), D.Def (Dt.Int y) ->
                        let s = x + y in
                        [| D.int (if s > 10 then s + 100 else s) |]
                    | _ -> [| D.Bottom |])
              else b)
        in
        let a = T.record ~strategy:Fx.Worklist g (chain_stream 5) in
        let b = T.record ~strategy:Fx.Worklist broken (chain_stream 5) in
        match T.first_divergence a b with
        | None -> Alcotest.fail "expected a divergence"
        | Some d ->
            (* y: 2, 6, 12 — first sum > 10 at instant 2 *)
            Alcotest.(check int) "instant" 2 d.T.d_instant;
            Alcotest.(check string) "producer" "add" d.T.d_producer);
    case "fatal abort shows up as a missing instant" (fun () ->
        let g () = chain_graph () in
        let inject =
          [ { I.i_block = 0; i_kind = I.Trap; i_instant = 3;
              i_persistence = I.Persistent; i_first_only = false } ]
        in
        let a =
          T.record ~strategy:Fx.Scheduled ~policy:S.Hold_last ~inject (g ())
            (chain_stream 5)
        in
        let b =
          T.record ~strategy:Fx.Scheduled ~policy:S.Fail_fast ~inject (g ())
            (chain_stream 5)
        in
        match T.first_divergence a b with
        | Some d when d.T.d_net = -1 ->
            Alcotest.(check int) "missing instant" 3 d.T.d_instant;
            Alcotest.(check string) "side" "missing in B" d.T.d_producer
        | Some d ->
            Alcotest.failf "expected missing instant, got net %d" d.T.d_net
        | None -> Alcotest.fail "expected a divergence");
    case "different input streams are incomparable" (fun () ->
        let a = T.record (chain_graph ()) (chain_stream 3) in
        let b =
          T.record (chain_graph ()) [ [ ("x", D.int 99) ]; [ ("x", D.int 1) ];
                                      [ ("x", D.int 2) ] ]
        in
        Alcotest.check_raises "incomparable"
          (T.Incomparable "input streams differ") (fun () ->
            ignore (T.first_divergence a b)));
    (* ---- rendering ---- *)
    case "why rendering names blocks, inputs and tags" (fun () ->
        let g = chain_graph () in
        let inject =
          [ { I.i_block = 1; i_kind = I.Trap; i_instant = 1;
              i_persistence = I.Transient; i_first_only = false } ]
        in
        let t =
          T.record ~strategy:Fx.Scheduled ~policy:S.Hold_last ~inject g
            (chain_stream 3)
        in
        let net = Option.get (T.output_net t "y") in
        let s = T.slice_to_string t (T.why t ~net ~instant:1) in
        Alcotest.(check bool) "query line" true
          (contains ~substring:"why net" s);
        Alcotest.(check bool) "input label" true
          (contains ~substring:"input:x" s);
        Alcotest.(check bool) "containment tag" true
          (contains ~substring:"[contained:" s);
        let j = T.slice_json t (T.why t ~net ~instant:1) in
        (match jget [ "producer" ] j with
        | Some (J.Str p) ->
            Alcotest.(check bool) "producer label" true (p = "fork2")
        | _ -> Alcotest.fail "slice json should carry producer"));
    case "divergence json carries both slices" (fun () ->
        let g = chain_graph () in
        let broken =
          G.map_blocks g (fun i b ->
              if i = 0 then B.gain 3 else b)
        in
        let a = T.record g (chain_stream 2) in
        let b = T.record broken (chain_stream 2) in
        match T.first_divergence a b with
        | None -> Alcotest.fail "expected divergence"
        | Some d ->
            let j = J.parse (J.to_string (T.divergence_json d)) in
            Alcotest.(check int) "instant" 0 (jint [ "instant" ] j);
            Alcotest.(check bool) "slice_a present" true
              (jget [ "slice_a"; "root" ] j <> None);
            Alcotest.(check bool) "slice_b present" true
              (jget [ "slice_b"; "root" ] j <> None));
    (* ---- data-loss surfacing ---- *)
    case "export table reports causal loss" (fun () ->
        let reg = Telemetry.Registry.create () in
        let s = Telemetry.Export.table ~causal_loss:(3, 1) reg in
        Alcotest.(check bool) "overwrites line" true
          (contains ~substring:"3 causal events overwritten" s);
        Alcotest.(check bool) "truncation line" true
          (contains ~substring:"1 causal slices truncated" s);
        let quiet = Telemetry.Export.table reg in
        Alcotest.(check bool) "silent when zero" false
          (contains ~substring:"causal" quiet));
    case "export json and chrome trace report causal loss" (fun () ->
        let reg = Telemetry.Registry.create () in
        let j = Telemetry.Export.json ~causal_loss:(5, 2) reg in
        Alcotest.(check int) "json overwrites" 5
          (jint [ "data_loss"; "causal_overwrites" ] j);
        Alcotest.(check int) "json truncated" 2
          (jint [ "data_loss"; "causal_truncated" ] j);
        let j0 = Telemetry.Export.json reg in
        Alcotest.(check int) "json default 0" 0
          (jint [ "data_loss"; "causal_overwrites" ] j0);
        let ct = J.parse (Telemetry.Export.chrome_trace ~causal_loss:(5, 2) reg) in
        Alcotest.(check int) "chrome overwrites" 5
          (jint [ "metadata"; "causal_overwrites" ] ct);
        Alcotest.(check int) "chrome truncated" 2
          (jint [ "metadata"; "causal_truncated" ] ct));
    case "monitor snapshots report causal loss" (fun () ->
        let mon = Telemetry.Monitor.create () in
        let j0 = Telemetry.Monitor.snapshot mon in
        Alcotest.(check int) "default 0" 0
          (jint [ "data_loss"; "causal_overwrites" ] j0);
        Telemetry.Monitor.set_causal_source mon (fun () -> (7, 2));
        let j = Telemetry.Monitor.snapshot mon in
        Alcotest.(check int) "overwrites" 7
          (jint [ "data_loss"; "causal_overwrites" ] j);
        Alcotest.(check int) "truncated" 2
          (jint [ "data_loss"; "causal_truncated" ] j));
    case "simulator wires causal loss into the monitor" (fun () ->
        let g = chain_graph () in
        let compiled = G.compile g in
        let cz = C.create ~capacity:8 ~n_nets:compiled.G.n_nets () in
        let mon = Telemetry.Monitor.create () in
        let sim = Sim.create ~strategy:Fx.Scheduled ~monitor:mon ~causal:cz g in
        List.iter (fun i -> ignore (Sim.step sim i)) (chain_stream 12);
        Alcotest.(check bool) "ring overflowed" true (C.overwrites cz > 0);
        let j = Telemetry.Monitor.snapshot mon in
        Alcotest.(check int) "snapshot sees the ring" (C.overwrites cz)
          (jint [ "data_loss"; "causal_overwrites" ] j));
    case "simulator rejects a mismatched causal sink" (fun () ->
        let g = chain_graph () in
        let cz : D.t C.t = C.create ~n_nets:1 () in
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Simulate.create: causal sink net count mismatch")
          (fun () -> ignore (Sim.create ~causal:cz g)));
  ]
