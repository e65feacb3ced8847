(* Crash recovery: resume differentials and a SIGKILL harness. Gates:
   every checkpoint artifact survives a JSON round-trip bit-identically,
   every resumed run converges bit-exactly to the uninterrupted oracle
   (outputs, final fixed point, fault log, monitor cumulatives, causal
   events; Fail_fast aborts re-abort at the same instant with the same
   fault), and a SIGKILLed child's on-disk checkpoints recover the run.
   The kill rows depend on when the child froze, so their instants are
   wall rows. *)

module C = Telemetry.Causal
module G = Asr.Graph
module F = Asr.Fixpoint
module S = Asr.Supervisor
module I = Asr.Inject
module K = Asr.Checkpoint

let rec drop n = function _ :: tl when n > 0 -> drop (n - 1) tl | l -> l

(* Bit-exact instant-stream equality: [Codec.value_eq] distinguishes
   NaN payloads and -0.0 where structural (=) would lie. *)
let outputs_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun xs ys ->
         List.length xs = List.length ys
         && List.for_all2
              (fun (n1, v1) (n2, v2) ->
                String.equal n1 n2 && Asr.Codec.value_eq v1 v2)
              xs ys)
       a b

(* Drives [sim] over [arr] from [start]; the outputs and the fault that
   aborted the run, if one did. *)
let drive sim injector arr ~start =
  let outs = ref [] in
  let fatal =
    try
      for i = start to Array.length arr - 1 do
        outs := Asr.Simulate.step sim arr.(i) :: !outs;
        Option.iter I.tick injector
      done;
      None
    with S.Fatal f -> Some f
  in
  (List.rev !outs, fatal)

(* Every strategy and every containment policy, injected campaigns on
   all but the chaotic control, and a persistent Fail_fast abort. *)
let arms ~n_blocks ~instants =
  let campaign seed =
    I.plan ~seed ~n_blocks ~instants ~n_faults:3 ~first_only:false ()
  in
  [ (F.Chaotic, None, []);
    (F.Scheduled, Some S.Hold_last, campaign 7);
    (F.Worklist, Some (S.Retry 2), campaign 8);
    (F.Fused, Some S.Absent, campaign 9);
    ( F.Fused,
      Some S.Fail_fast,
      [ { I.i_block = 1;
          i_kind = I.Trap;
          i_instant = instants / 2;
          i_persistence = I.Persistent;
          i_first_only = false } ] ) ]

(* MD5 over the bytes [K.save] writes for each artifact, in order. An
   exact row: an encoder change that moves one byte of any saved
   artifact fails against the recorded baseline. *)
let artifact_md5 cks =
  let path = Filename.temp_file "asr-recovery" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  List.map
    (fun ck ->
      K.save ck path;
      In_channel.with_open_bin path In_channel.input_all)
    cks
  |> String.concat "" |> Digest.string |> Digest.to_hex

(* One oracle run captures a deep checkpoint at every [ck_every]-th
   instant boundary while it keeps going; each artifact is then
   round-tripped through JSON, resumed against the clean graph, and
   driven over the remaining stimulus. The resumed suffix outputs must
   equal the oracle's, and a final checkpoint of the resumed run must
   equal the oracle's final checkpoint: delay registers, fixed points,
   counters, fault log, quarantine set, monitor cumulatives and causal
   events in one comparison. Fail_fast oracles abort instead; there the
   resumed run must abort at the same instant with the same fault.
   Where the arm carries a causal ring, a recording of the same run
   joins the hashed artifacts ([artifact_md5]). *)
let differential_rows ~name g stream ~strategy ?policy ~inject ~ck_every
    ~with_causal () =
  let arr = Array.of_list stream in
  let injector = if inject = [] then None else Some (I.make inject) in
  let sim =
    Asr.Simulate.create ~strategy
      ~telemetry:(Telemetry.Registry.create ())
      ?supervisor:(Option.map (fun p -> S.create ~policy:p ()) policy)
      ~monitor:(Telemetry.Monitor.create ())
      ?causal:
        (if with_causal then Some (C.create ~n_nets:(G.compile g).G.n_nets ())
         else None)
      (match injector with None -> g | Some inj -> I.instrument inj g)
  in
  let capture ?injector sim = K.capture ~system:name ~seed:17 ?injector sim in
  let cks = ref [] and outs = ref [] in
  let fatal =
    try
      Array.iteri
        (fun i inputs ->
          if i > 0 && i mod ck_every = 0 then
            cks := capture ?injector sim :: !cks;
          outs := Asr.Simulate.step sim inputs :: !outs;
          Option.iter I.tick injector)
        arr;
      None
    with S.Fatal f -> Some f
  in
  let oracle_outs = List.rev !outs in
  let oracle_final =
    if Option.is_none fatal then Some (capture ?injector sim) else None
  in
  let resumed ck =
    let ck' = K.of_json (K.to_json ck) in
    let r = K.resume ck' g in
    let start = K.instant ck' in
    let routs, rfatal = drive r.K.r_sim r.K.r_injector arr ~start in
    let end_ok =
      match (fatal, rfatal, oracle_final) with
      | None, None, Some o ->
          K.equal o (capture ?injector:r.K.r_injector r.K.r_sim)
      | Some f, Some f', _ ->
          start + List.length routs = List.length oracle_outs
          && S.fault_to_string f = S.fault_to_string f'
      | _ -> false
    in
    (K.equal ck ck', outputs_eq routs (drop start oracle_outs) && end_ok)
  in
  let results = List.map resumed (List.rev !cks) in
  let recorded =
    if with_causal then
      [ K.record ~strategy ?policy ~inject ~seed:17 g stream ]
    else []
  in
  let md5 =
    artifact_md5 (List.rev !cks @ Option.to_list oracle_final @ recorded)
  in
  let w = name
  and layer =
    F.strategy_name strategy ^ "/"
    ^ match policy with None -> "none" | Some p -> S.policy_name p
  in
  let n = List.length results in
  Row.
    [ count ~w ~layer "blocks" (Fixtures.n_blocks g);
      count ~w ~layer "instants" (List.length oracle_outs);
      count ~w ~layer "injected_faults" (List.length inject);
      exact ~w ~layer "aborted" (Bool (Option.is_some fatal));
      count ~w ~layer "checkpoints_checked" n;
      count ~w ~layer "resumes_checked" n;
      str ~w ~layer "artifact_md5" md5;
      gate ~w ~layer "checkpoint_captured" (n > 0);
      gate ~w ~layer "artifact_roundtrip_identical"
        (List.for_all fst results);
      gate ~w ~layer "resume_identical" (List.for_all snd results) ]

let netgen_graph size = Fixtures.netgen ~seed:(2201 + size) size

(* FIR / JPEG plus 10^2..10^4-block generated nets. Causal sinks ride on
   the smaller systems (event capture on a 10^4-net ring would dominate
   the run without sharpening the gate); the chaotic arm is dropped
   from the 10^4 net only, where O(depth) sweeps make it the lone
   multi-second row. *)
let differential ~smoke =
  let instants = if smoke then 6 else 12 in
  let ck_every = if smoke then 2 else 3 in
  let systems =
    if smoke then
      [ ("fir", Fixtures.fir_graph 12, `Sched, true, `All);
        ("netgen-small", netgen_graph 50, `Netgen, true, `All) ]
    else
      [ ("fir", Fixtures.fir_graph 64, `Sched, true, `All);
        ("jpeg-pipeline", Fixtures.pipeline_graph 48, `Sched, true, `All);
        ("netgen-100", netgen_graph 100, `Netgen, true, `All);
        ("netgen-1000", netgen_graph 1000, `Netgen, false, `All);
        ("netgen-10000", netgen_graph 10000, `Netgen, false, `Fast) ]
  in
  List.concat_map
    (fun (name, g, stim, with_causal, which) ->
      let stream =
        match stim with
        | `Sched -> Fixtures.stimulus g ~instants
        | `Netgen -> Workloads.Netgen.stimulus g ~instants
      in
      arms ~n_blocks:(Fixtures.n_blocks g) ~instants
      |> List.filter (fun (strategy, _, _) ->
             which = `All || strategy <> F.Chaotic)
      |> List.concat_map (fun (strategy, policy, inject) ->
             differential_rows ~name g stream ~strategy ?policy ~inject
               ~ck_every ~with_causal ()))
    systems

(* ---- SIGKILL harness: kill a child mid-run, resume from disk ------- *)

(* The killed child and the in-process oracle build the identical
   system: a seeded generated net under Worklist / Retry 2 with an
   injected three-fault campaign, full telemetry attached. *)
let harness_setup ~instants =
  let g =
    Workloads.Netgen.generate ~inputs:3 ~delays:2 ~cyclic_ratio:0.1 ~seed:41
      ~depth:5 ~width:8 ()
  in
  let compiled = G.compile g in
  let injector =
    I.make
      (I.plan ~seed:11
         ~n_blocks:(Array.length compiled.G.c_blocks)
         ~instants ~n_faults:3 ~first_only:false ())
  in
  let sim =
    Asr.Simulate.create ~strategy:F.Worklist
      ~telemetry:(Telemetry.Registry.create ())
      ~supervisor:(S.create ~policy:(S.Retry 2) ())
      ~monitor:(Telemetry.Monitor.create ())
      ~causal:(C.create ~n_nets:compiled.G.n_nets ())
      (I.instrument injector g)
  in
  (g, sim, injector, Array.of_list (Workloads.Netgen.stimulus g ~instants))

let harness_capture ?injector sim =
  K.capture ~system:"recovery-harness" ~seed:41 ?injector sim

(* Hidden [recovery-child DIR KILL CK_EVERY INSTANTS] mode, spawned by
   [kill_rows]: run the harness system saving a checkpoint at every
   CK_EVERY-instant boundary; at the KILL boundary, touch DIR/ready and
   freeze until the parent's SIGKILL lands. Dying frozen, after
   fsync-visible artifacts and before the next instant, models the
   power cut the recovery story is for.

   [recovery-child midwrite PATH READY INSTANTS], spawned by
   [midwrite_rows], never freezes: it saves the harness checkpoint over
   the one PATH at every instant boundary, touches READY after the
   first save, and then re-saves the final checkpoint in a loop, so the
   parent's SIGKILL lands at an arbitrary point of a save. *)
let child = function
  | [ "midwrite"; path; ready; instants ] ->
      let _g, sim, injector, arr =
        harness_setup ~instants:(int_of_string instants)
      in
      let save () = K.save (harness_capture ~injector sim) path in
      save ();
      close_out (open_out ready);
      Array.iter
        (fun inputs ->
          ignore (Asr.Simulate.step sim inputs);
          I.tick injector;
          save ())
        arr;
      while true do
        save ()
      done
  | [ dir; kill; ck_every; instants ] ->
      let kill = int_of_string kill
      and ck_every = int_of_string ck_every
      and instants = int_of_string instants in
      let _g, sim, injector, arr = harness_setup ~instants in
      Array.iteri
        (fun i inputs ->
          if i > 0 && i mod ck_every = 0 then
            K.save (harness_capture ~injector sim)
              (Filename.concat dir (Printf.sprintf "checkpoint-%d.json" i));
          if i = kill then begin
            close_out (open_out (Filename.concat dir "ready"));
            while true do
              Unix.sleepf 3600.0
            done
          end;
          ignore (Asr.Simulate.step sim inputs);
          I.tick injector)
        arr
  | _ ->
      prerr_endline
        "usage: recovery-child DIR KILL CK_EVERY INSTANTS\n\
        \       recovery-child midwrite PATH READY INSTANTS";
      exit 1

let rec wait_for path tries =
  Sys.file_exists path
  || tries > 0
     && begin
          Unix.sleepf 0.05;
          wait_for path (tries - 1)
        end

(* Does resuming [ck] converge to the in-process oracle, the same run
   uninterrupted: suffix outputs and a byte-identical final
   checkpoint? *)
let converges ~instants ck =
  let g, sim, injector, arr = harness_setup ~instants in
  let oracle_outs, _ = drive sim (Some injector) arr ~start:0 in
  let oracle_final = harness_capture ~injector sim in
  let r = K.resume ck g in
  let start = K.instant ck in
  let routs, _ = drive r.K.r_sim r.K.r_injector arr ~start in
  outputs_eq routs (drop start oracle_outs)
  && K.equal oracle_final (harness_capture ?injector:r.K.r_injector r.K.r_sim)

let scratch_dir tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "asr-recovery-%d-%s" (Unix.getpid ()) tag)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let remove_dir dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let kill_rows ~instants ~ck_every j =
  let kill = max ck_every (41 * j mod instants) in
  let dir = scratch_dir (string_of_int kill) in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "recovery-child"; dir; string_of_int kill;
         string_of_int ck_every; string_of_int instants |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let ready = wait_for (Filename.concat dir "ready") 600 in
  Unix.kill pid Sys.sigkill;
  let _, status = Unix.waitpid [] pid in
  let latest =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           Scanf.sscanf_opt f "checkpoint-%d.json" (fun i -> i))
    |> List.fold_left max (-1)
  in
  let converged =
    latest >= 0
    && converges ~instants
         (K.load
            (Filename.concat dir (Printf.sprintf "checkpoint-%d.json" latest)))
  in
  remove_dir dir;
  let w = Printf.sprintf "sigkill-%d" j in
  Row.
    [ wall ~w ~unit_:"instant" "kill_instant" (float_of_int kill);
      wall ~w ~unit_:"instant" "recovered_from_instant" (float_of_int latest);
      gate ~w "sigkill_delivered_ok"
        (ready && status = Unix.WSIGNALED Sys.sigkill);
      gate ~w "recovery_converged_ok" converged ]

(* Kill a child that is saving one path over and over, at a seeded
   moment after its first save: whatever the kill interrupted, the file
   at the path must load (its digest matching the payload) and resume
   to the oracle. The moment, whether a save was cut short (a temporary
   file left behind) and the instant the file held are wall rows. *)
let midwrite_rows ~instants j =
  let dir = scratch_dir (Printf.sprintf "midwrite-%d" j) in
  let path = Filename.concat dir "checkpoint.json"
  and ready = Filename.concat dir "ready" in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "recovery-child"; "midwrite"; path; ready;
         string_of_int instants |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let started = wait_for ready 600 in
  let after_ms = (j - 1) * (j + 2) in
  Unix.sleepf (float_of_int after_ms /. 1000.0);
  Unix.kill pid Sys.sigkill;
  let _, status = Unix.waitpid [] pid in
  let ck =
    try Some (K.load path)
    with Invalid_argument _ | Sys_error _ | Telemetry.Json.Parse_error _ ->
      None
  in
  let converged = Option.fold ~none:false ~some:(converges ~instants) ck in
  (* a temporary file left beside the path: the kill cut a save short *)
  let torn =
    Array.exists (fun f -> Filename.check_suffix f ".tmp") (Sys.readdir dir)
  in
  remove_dir dir;
  let w = Printf.sprintf "sigkill-midwrite-%d" j in
  Row.
    [ wall ~w ~unit_:"ms" "kill_after_ms" (float_of_int after_ms);
      wall ~w ~unit_:"" "save_interrupted" (if torn then 1.0 else 0.0);
      wall ~w ~unit_:"instant" "recovered_from_instant"
        (Option.fold ~none:(-1.0) ~some:(fun ck -> float_of_int (K.instant ck)) ck);
      gate ~w "sigkill_delivered_ok"
        (started && status = Unix.WSIGNALED Sys.sigkill);
      gate ~w "artifact_loads_ok" (ck <> None);
      gate ~w "recovery_converged_ok" converged ]

let rows ~smoke =
  let instants = if smoke then 8 else 12 in
  let ck_every = if smoke then 2 else 3 in
  let arms = List.init (if smoke then 1 else 3) (fun j -> j + 1) in
  differential ~smoke
  @ List.concat_map (kill_rows ~instants ~ck_every) arms
  @ List.concat_map (midwrite_rows ~instants) arms
