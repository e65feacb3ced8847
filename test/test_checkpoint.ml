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

(* Resume [ck] (through a JSON round-trip) against clean [g] and drive
   the remaining instants. *)
let resume_and_run ck g stream =
  let ck = K.of_json (K.to_json ck) in
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
    case "causal state export/of_state preserves the continuable log"
      (fun () ->
        let g = chain_graph () in
        let cz = C.create ~n_nets:(G.compile g).G.n_nets () in
        let sim = Sim.create ~causal:cz g in
        List.iter (fun i -> ignore (Sim.step sim i)) (chain_stream 4);
        let st = C.export_state cz in
        let cz' = C.of_state st in
        Alcotest.(check int) "pushed" (C.pushed cz) (C.pushed cz');
        let render = C.event_json ~render:Cd.value_json in
        Alcotest.(check (list string))
          "events identical"
          (List.map (fun e -> J.to_string (render e)) (C.events cz))
          (List.map (fun e -> J.to_string (render e)) (C.events cz')));

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
        let tampered =
          match K.to_json ck with
          | J.Obj kvs ->
              J.Obj
                (List.map
                   (function
                     | ("version", _) -> ("version", J.Int 999)
                     | kv -> kv)
                   kvs)
          | _ -> Alcotest.fail "object expected"
        in
        match K.of_json tampered with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
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
        let named m =
          List.exists
            (fun p -> String.length m > String.length p
                      && String.sub m 0 (String.length p) = p)
            [ "Causal.of_state: "; "Causal.event_of_json: " ]
        in
        match K.resume (K.of_json bad) g with
        | _ -> QCheck.Test.fail_reportf "%s: resumed" name
        | exception Invalid_argument m ->
            named m || QCheck.Test.fail_reportf "%s: unnamed error %S" name m);
    case "of_state rejects odd-length reads" (fun () ->
        let ev =
          { C.ev_uid = 0; ev_instant = 0; ev_kind = C.Eval; ev_block = 0;
            ev_tag = ""; ev_src = -1; ev_reads = [| 1 |];
            ev_write_nets = [| 0 |]; ev_write_values = [| 7 |] }
        in
        Alcotest.check_raises "odd reads"
          (Invalid_argument "Causal.of_state: event 0: odd-length reads")
          (fun () ->
            ignore
              (C.of_state
                 { C.st_capacity = 4; st_pushed = 1; st_instant = 0;
                   st_truncated = 0; st_writers = [| 0; -1 |];
                   st_events = [ ev ] })));
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
