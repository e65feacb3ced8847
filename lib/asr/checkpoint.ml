module Json = Telemetry.Json
module Causal = Telemetry.Causal
module Monitor = Telemetry.Monitor
module Registry = Telemetry.Registry

let malformed what = invalid_arg ("Checkpoint.of_json: malformed " ^ what)

(* 3: the supervisor section carries per-block health registers and the
   monitor section no longer mirrors them *)
let version = 3

(* What a recorded run adds to the boundary state: the stream it was
   fed, every completed instant's fixed point, outputs and iteration
   count, the fault that aborted it, and the static labels queries
   print (block names, net producers, environment ports). *)
type recording = {
  rc_stream : (string * Domain.t) list list;
  rc_nets : Domain.t array array;
  rc_outputs : (string * Domain.t) list list;
  rc_iterations : int array;
  rc_fatal : string option;
  rc_blocks : string array;
  rc_producers : int array;
      (* net -> producing block index; -2 input, -3 delay, -1 unwritten *)
  rc_inputs : (string * int) array;
  rc_ports : (string * int) array;  (* environment outputs *)
}

type t = {
  k_system : string;
  k_strategy : Fixpoint.strategy;
  k_policy : Supervisor.policy option;
  k_escalate_after : int;
  k_inject : Inject.spec list;
  k_seed : int;
  k_fingerprint : string;
  k_state : Simulate.state;
  k_supervisor : Json.t option;
  k_injector : (int * int) option;  (* (instant, fired) *)
  k_counters : (string * int) list option;
  k_monitor : Json.t option;
  k_causal : Domain.t Causal.t option;  (* a snapshot, never recorded into *)
  k_machine : Json.t option;
  k_recording : recording option;
}

let instant t = t.k_state.Simulate.st_instant

let policy t = t.k_policy

let escalation_threshold t = t.k_escalate_after

let has_supervisor t = Option.is_some t.k_supervisor

let has_monitor t = Option.is_some t.k_monitor

let machine t = t.k_machine

let fingerprint t = t.k_fingerprint

(* --------------------------- fingerprint -------------------------- *)

let check_fingerprint who t compiled =
  if Graph.fingerprint compiled <> t.k_fingerprint then
    invalid_arg
      (Printf.sprintf
         "%s: graph fingerprint mismatch (artifact of system %S was \
          captured on other blocks or another port layout)"
         who t.k_system)

(* ----------------------------- capture ---------------------------- *)

type recorder = {
  rec_sim : Simulate.t;
  rec_stream : (string * Domain.t) list list;
  mutable rec_rest : (string * Domain.t) list list;
  mutable rec_entries : (Simulate.trace_entry * Domain.t array) list;
  mutable rec_fatal : string option;
}

let recorder sim stream =
  if Simulate.instant_count sim <> 0 then
    invalid_arg "Checkpoint.recorder: a recording starts at instant 0";
  { rec_sim = sim;
    rec_stream = stream;
    rec_rest = stream;
    rec_entries = [];
    rec_fatal = None }

let record_step r =
  match r.rec_rest with
  | [] -> invalid_arg "Checkpoint.record_step: the stream is exhausted"
  | inputs :: rest -> (
      r.rec_rest <- rest;
      match List.hd (Simulate.run r.rec_sim [ inputs ]) with
      | e ->
          r.rec_entries <- (e, Simulate.net_values r.rec_sim) :: r.rec_entries;
          e
      | exception (Supervisor.Fatal f as fatal) ->
          r.rec_fatal <- Some (Supervisor.fault_to_string f);
          raise fatal)

let recording_of r =
  let c = Simulate.graph r.rec_sim in
  let producers = Array.make c.Graph.n_nets (-1) in
  Array.iteri
    (fun bi (_, _, outs) -> Array.iter (fun n -> producers.(n) <- bi) outs)
    c.Graph.c_blocks;
  Array.iter (fun (_, out, _) -> producers.(out) <- -3) c.Graph.c_delays;
  Array.iter (fun (_, net) -> producers.(net) <- -2) c.Graph.c_inputs;
  let entries = List.rev r.rec_entries in
  { rc_stream = r.rec_stream;
    rc_nets = Array.of_list (List.map snd entries);
    rc_outputs = List.map (fun (e, _) -> e.Simulate.outputs) entries;
    rc_iterations =
      Array.of_list (List.map (fun (e, _) -> e.Simulate.iterations) entries);
    rc_fatal = r.rec_fatal;
    rc_blocks = Array.map (fun (b, _, _) -> b.Block.name) c.Graph.c_blocks;
    rc_producers = producers;
    rc_inputs = Array.copy c.Graph.c_inputs;
    rc_ports = Array.copy c.Graph.c_outputs }

(* The one capture path. An aborted recording is taken mid-instant, so
   it carries no supervisor, monitor or machine section, and its causal
   snapshot keeps the committed events with unknown writer registers:
   enough for queries about the completed instants, and an aborted
   recording is not resumable. *)
let snapshot ~system ?(seed = 0) ?injector ?machine ?recording sim =
  let aborted =
    match recording with Some { rc_fatal = Some _; _ } -> true | _ -> false
  in
  let sup = Simulate.supervisor sim and causal = Simulate.causal sim in
  if
    (not aborted)
    && (Option.fold ~none:false ~some:Supervisor.in_instant sup
       || Option.fold ~none:false ~some:Causal.in_instant causal)
  then invalid_arg "Checkpoint.capture: instant open";
  let unless_aborted f x = if aborted then None else Option.map f x in
  { k_system = system;
    k_strategy = Simulate.strategy sim;
    k_policy = Option.map Supervisor.policy sup;
    k_escalate_after =
      (match sup with Some s -> Supervisor.escalation_threshold s | None -> 3);
    k_inject = (match injector with Some i -> Inject.specs i | None -> []);
    k_seed = seed;
    k_fingerprint = Graph.fingerprint (Simulate.graph sim);
    k_state = Simulate.export_state sim;
    k_supervisor = unless_aborted Supervisor.state_json sup;
    k_injector =
      Option.map (fun i -> (Inject.instant i, Inject.fired i)) injector;
    k_counters =
      Option.map Registry.export_counters (Simulate.telemetry sim);
    k_monitor = unless_aborted Monitor.state_json (Simulate.monitor sim);
    k_causal = Option.map Causal.snapshot causal;
    k_machine = unless_aborted Fun.id machine;
    k_recording = recording }

let capture ~system ?seed ?injector ?machine sim =
  snapshot ~system ?seed ?injector ?machine sim

let recorded ~system ?machine r =
  snapshot ~system ?machine ~recording:(recording_of r) r.rec_sim

(* ----------------------------- resume ----------------------------- *)

let instrument inject graph =
  if inject = [] then (None, graph)
  else
    let inj = Inject.make inject in
    (Some inj, Inject.instrument inj graph)

type resumed = {
  r_sim : Simulate.t;
  r_supervisor : Supervisor.t option;
  r_injector : Inject.t option;
}

let resume ?telemetry ?monitor ?supervisor t graph =
  (match t.k_recording with
  | Some { rc_fatal = Some f; _ } ->
      invalid_arg
        (Printf.sprintf
           "Checkpoint.resume: the recorded run aborted at instant %d (%s); \
            resume a boundary checkpoint instead"
           (instant t) f)
  | _ -> ());
  let injector, graph' = instrument t.k_inject graph in
  (* the caller's instance, else a fresh one where the artifact has
     the section *)
  let given_or make given section =
    match (given, section) with
    | Some x, _ -> Some x
    | None, Some _ -> Some (make ())
    | None, None -> None
  in
  let supervisor =
    given_or
      (fun () ->
        match t.k_policy with
        | Some policy ->
            Supervisor.create ~policy ~escalate_after:t.k_escalate_after ()
        | None -> malformed "supervisor state without a policy")
      supervisor t.k_supervisor
  in
  let telemetry =
    given_or (fun () -> Registry.create ()) telemetry t.k_counters
  in
  let monitor = given_or (fun () -> Monitor.create ()) monitor t.k_monitor in
  (* checked before any attachment is touched; [Simulate.create] reuses
     this compilation *)
  check_fingerprint "Checkpoint.resume" t (Graph.compile graph');
  let causal = Option.map Causal.copy t.k_causal in
  let sim =
    Simulate.create ~strategy:t.k_strategy ?telemetry ?supervisor ?monitor
      ?causal graph'
  in
  Simulate.import_state sim t.k_state;
  let restore f x section =
    match (x, section) with Some x, Some st -> f x st | _ -> ()
  in
  restore Supervisor.restore_state supervisor t.k_supervisor;
  restore Registry.import_counters telemetry t.k_counters;
  restore Monitor.restore_state monitor t.k_monitor;
  (match (injector, t.k_injector) with
  | Some i, Some (instant, fired) -> Inject.restore_state i ~instant ~fired
  | Some _, None -> malformed "injection plan without an injector clock"
  | _ -> ());
  { r_sim = sim;
    r_supervisor = supervisor;
    r_injector = injector }

(* ------------------------- record / replay ------------------------ *)

let run ?expect ~strategy ?policy ~escalate_after ~inject ~seed ~capacity
    graph stream =
  let injector, graph' = instrument inject graph in
  let supervisor =
    Option.map (fun p -> Supervisor.create ~policy:p ~escalate_after ()) policy
  in
  (* one compilation, shared with [Simulate.create] *)
  let compiled = Graph.compile graph' in
  Option.iter (fun t -> check_fingerprint "Checkpoint.replay" t compiled)
    expect;
  let causal = Causal.create ~capacity ~n_nets:compiled.Graph.n_nets () in
  let sim = Simulate.create ~strategy ?supervisor ~causal graph' in
  let r = recorder sim stream in
  (try
     List.iter
       (fun _ ->
         ignore (record_step r);
         Option.iter Inject.tick injector)
       stream
   with Supervisor.Fatal _ -> ());
  snapshot ~system:(Graph.name graph) ~seed ?injector
    ~recording:(recording_of r) sim

let record ?(strategy = Fixpoint.Scheduled) ?policy ?(inject = []) ?(seed = 0)
    graph stream =
  run ~strategy ?policy ~escalate_after:3 ~inject ~seed ~capacity:65536 graph
    stream

(* ----------------------------- queries ---------------------------- *)

let recording t =
  match t.k_recording with
  | Some rc -> rc
  | None -> invalid_arg "Checkpoint: the artifact has no recording"

let log t =
  match t.k_causal with
  | Some c -> c
  | None -> invalid_arg "Checkpoint: the artifact has no causal log"

let replay t graph =
  run ~expect:t ~strategy:t.k_strategy ?policy:t.k_policy
    ~escalate_after:t.k_escalate_after ~inject:t.k_inject ~seed:t.k_seed
    ~capacity:(Causal.capacity (log t)) graph (recording t).rc_stream

let n_nets t = Array.length t.k_state.Simulate.st_nets

let outputs t = (recording t).rc_outputs

let nets_at t i =
  let nets = (recording t).rc_nets in
  if i < 0 || i >= Array.length nets then None else Some (Array.copy nets.(i))

let output_net t name =
  Array.find_opt (fun (n, _) -> n = name) (recording t).rc_ports
  |> Option.map snd

let faults t =
  match Option.bind t.k_supervisor (Json.member "log") with
  | Some (Json.List l) -> l
  | _ -> []

let fault_count t = List.length (faults t)

let fatal t = (recording t).rc_fatal

let events t = Causal.events (log t)

let data_loss t = Causal.data_loss (log t)

let producer t net =
  let rc = recording t in
  if net < 0 || net >= Array.length rc.rc_producers then "?"
  else
    match rc.rc_producers.(net) with
    | bi when bi >= 0 && bi < Array.length rc.rc_blocks -> rc.rc_blocks.(bi)
    | -2 -> (
        match Array.find_opt (fun (_, n) -> n = net) rc.rc_inputs with
        | Some (name, _) -> "input:" ^ name
        | None -> "input")
    | -3 -> "delay"
    | _ -> "unwritten"

(* ------------------------- why-provenance ------------------------- *)

let why t ~net ~instant = Causal.slice (log t) ~net ~instant

let slice_to_string t sl =
  let blocks = (recording t).rc_blocks in
  let buf = Buffer.create 256 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  line "why net %d (%s) @ instant %d = %s" sl.Causal.sl_net
    (producer t sl.Causal.sl_net)
    sl.Causal.sl_instant
    (match sl.Causal.sl_value with
    | None -> "⊥"
    | Some v -> Domain.to_string v);
  let by_uid = Hashtbl.create 16 in
  List.iter
    (fun ev -> Hashtbl.replace by_uid ev.Causal.ev_uid ev)
    sl.Causal.sl_events;
  let seen = Hashtbl.create 16 in
  let rec go indent uid =
    let pad = String.make indent ' ' in
    match Hashtbl.find_opt by_uid uid with
    | None -> line "%s[%d] (lost to ring eviction)" pad uid
    | Some ev ->
        if Hashtbl.mem seen uid then line "%s[%d] (shown above)" pad uid
        else begin
          Hashtbl.add seen uid ();
          let what =
            match ev.Causal.ev_kind with
            | Causal.Eval ->
                let b = ev.Causal.ev_block in
                Printf.sprintf "eval %s"
                  (if b >= 0 && b < Array.length blocks then blocks.(b)
                   else string_of_int b)
            | Causal.Input ->
                if Array.length ev.Causal.ev_write_nets > 0 then
                  producer t ev.Causal.ev_write_nets.(0)
                else "input"
            | Causal.Delay ->
                Printf.sprintf "delay from net %d @ instant %d"
                  ev.Causal.ev_src
                  (ev.Causal.ev_instant - 1)
            | Causal.Folded -> "folded constant"
          in
          let tag =
            if ev.Causal.ev_tag = "" then ""
            else " [" ^ ev.Causal.ev_tag ^ "]"
          in
          let writes =
            String.concat ", "
              (Array.to_list
                 (Array.mapi
                    (fun k net ->
                      Printf.sprintf "net %d=%s" net
                        (Domain.to_string ev.Causal.ev_write_values.(k)))
                    ev.Causal.ev_write_nets))
          in
          line "%s[%d] %s%s @ instant %d -> %s" pad ev.Causal.ev_uid what tag
            ev.Causal.ev_instant writes;
          let nr = Array.length ev.Causal.ev_reads / 2 in
          for k = 0 to nr - 1 do
            let rnet = ev.Causal.ev_reads.(2 * k)
            and ruid = ev.Causal.ev_reads.((2 * k) + 1) in
            if ruid >= 0 then go (indent + 2) ruid
            else line "%s  net %d = ⊥ (never established)" pad rnet
          done
        end
  in
  (if sl.Causal.sl_root >= 0 then go 2 sl.Causal.sl_root
   else
     match sl.Causal.sl_value with
     | None when sl.Causal.sl_truncated ->
         line "  (writer lost to ring eviction)"
     | None -> line "  (no writer: the net stayed ⊥)"
     | Some _ -> ());
  if sl.Causal.sl_bottom <> [] then
    line "  bottom leaves: %s"
      (String.concat ", "
         (List.map
            (fun (n, i) -> Printf.sprintf "net %d@%d" n i)
            sl.Causal.sl_bottom));
  if sl.Causal.sl_missing <> [] then
    line "  lost to ring eviction: %s"
      (String.concat ", "
         (List.map
            (fun (n, i) -> Printf.sprintf "net %d@%d" n i)
            sl.Causal.sl_missing));
  if sl.Causal.sl_truncated then
    line "  (slice truncated at the retention horizon)";
  Buffer.contents buf

let slice_json t sl =
  match Causal.slice_json ~render:Codec.value_json sl with
  | Json.Obj kvs ->
      Json.Obj (("producer", Json.Str (producer t sl.Causal.sl_net)) :: kvs)
  | j -> j

(* ------------------ first-divergence localization ----------------- *)

type divergence = {
  d_instant : int;
  d_net : int;
  d_block : int;
  d_producer : string;
  d_value_a : Domain.t;
  d_value_b : Domain.t;
  d_slice_a : Domain.t Causal.slice option;
  d_slice_b : Domain.t Causal.slice option;
}

exception Incomparable of string

let first_divergence a b =
  let ra = recording a and rb = recording b in
  if n_nets a <> n_nets b then
    raise
      (Incomparable
         (Printf.sprintf "net counts differ (%d vs %d)" (n_nets a) (n_nets b)));
  let bindings_eq xa xb =
    List.length xa = List.length xb
    && List.for_all2
         (fun (na, va) (nb, vb) -> na = nb && Codec.value_eq va vb)
         xa xb
  in
  if
    List.length ra.rc_stream <> List.length rb.rc_stream
    || not (List.for_all2 bindings_eq ra.rc_stream rb.rc_stream)
  then raise (Incomparable "input streams differ");
  let na = Array.length ra.rc_nets and nb = Array.length rb.rc_nets in
  let missing i =
    {
      d_instant = i;
      d_net = -1;
      d_block = -1;
      d_producer = (if i >= na then "missing in A" else "missing in B");
      d_value_a = Domain.Bottom;
      d_value_b = Domain.Bottom;
      d_slice_a = None;
      d_slice_b = None;
    }
  in
  let localize i nets =
    (* Among the instant's divergent nets, blame the one whose
       establishing event in A comes first in causal order. *)
    let la = log a and lb = log b in
    let uid_of net =
      match Causal.writer la ~net ~instant:i with
      | Some ev -> ev.Causal.ev_uid
      | None -> max_int
    in
    let net =
      List.fold_left
        (fun best n -> if uid_of n < uid_of best then n else best)
        (List.hd nets) (List.tl nets)
    in
    let sa = Causal.slice la ~net ~instant:i in
    let sb = Causal.slice lb ~net ~instant:i in
    let block =
      match Causal.find la sa.Causal.sl_root with
      | Some ev -> ev.Causal.ev_block
      | None -> -1
    in
    {
      d_instant = i;
      d_net = net;
      d_block = block;
      d_producer = producer a net;
      d_value_a = ra.rc_nets.(i).(net);
      d_value_b = rb.rc_nets.(i).(net);
      d_slice_a = Some sa;
      d_slice_b = Some sb;
    }
  in
  let n = max na nb in
  let rec scan i =
    if i >= n then None
    else if i >= na || i >= nb then Some (missing i)
    else begin
      let va = ra.rc_nets.(i) and vb = rb.rc_nets.(i) in
      let diffs = ref [] in
      for net = n_nets a - 1 downto 0 do
        if not (Codec.value_eq va.(net) vb.(net)) then diffs := net :: !diffs
      done;
      match !diffs with [] -> scan (i + 1) | nets -> Some (localize i nets)
    end
  in
  scan 0

let divergence_to_string d =
  if d.d_net < 0 then
    Printf.sprintf "first divergence at instant %d: instant %s" d.d_instant
      d.d_producer
  else
    let summary tag = function
      | None -> ""
      | Some sl ->
          Printf.sprintf "\n  %s: %d causal events%s%s" tag
            (List.length sl.Causal.sl_events)
            (match sl.Causal.sl_bottom with
            | [] -> ""
            | l -> Printf.sprintf ", %d bottom leaves" (List.length l))
            (if sl.Causal.sl_truncated then ", truncated" else "")
    in
    Printf.sprintf
      "first divergence at instant %d: net %d (%s, block %d): %s vs %s%s%s"
      d.d_instant d.d_net d.d_producer d.d_block (Domain.to_string d.d_value_a)
      (Domain.to_string d.d_value_b) (summary "A" d.d_slice_a)
      (summary "B" d.d_slice_b)

let divergence_json d =
  let slice = function
    | None -> Json.Null
    | Some sl -> Causal.slice_json ~render:Codec.value_json sl
  in
  Json.Obj
    [ ("instant", Json.Int d.d_instant);
      ("net", Json.Int d.d_net);
      ("block", Json.Int d.d_block);
      ("producer", Json.Str d.d_producer);
      ("value_a", Codec.value_json d.d_value_a);
      ("value_b", Codec.value_json d.d_value_b);
      ("slice_a", slice d.d_slice_a);
      ("slice_b", slice d.d_slice_b) ]

(* -------------------------- serialization ------------------------- *)

(* The one encoder: [save] writes these bytes, [to_json] is their parse
   and [equal] compares them. Each writer below takes its value, then
   the buffer; sections that grow with the run (causal events, net
   vectors, the recording) are written field by field, and the small
   fixed trees (supervisor, monitor, machine, injection specs) go
   through [Json.write]. Keys are plain ASCII. *)

let int n buf = Json.write_int buf n

let str s buf = Json.write_str buf s

let tree j buf = Json.write buf j

let value v buf = Codec.write_value buf v

let opt f x buf =
  match x with None -> Buffer.add_string buf "null" | Some v -> f v buf

let seq iteri f xs buf =
  Buffer.add_char buf '[';
  iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      f x buf)
    xs;
  Buffer.add_char buf ']'

let list f = seq List.iteri f

let array f = seq Array.iteri f

let obj fields buf =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, f) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf k;
      Buffer.add_string buf "\":";
      f buf)
    fields;
  Buffer.add_char buf '}'

let binding (name, v) buf =
  Buffer.add_char buf '[';
  Json.write_str buf name;
  Buffer.add_char buf ',';
  Codec.write_value buf v;
  Buffer.add_char buf ']'

let pair (name, n) buf =
  Buffer.add_char buf '[';
  Json.write_str buf name;
  Buffer.add_char buf ',';
  Json.write_int buf n;
  Buffer.add_char buf ']'

let ints = array int

let vec = array value

let write_recording rc =
  obj
    [ ("stream", list (list binding) rc.rc_stream);
      ("nets", array vec rc.rc_nets);
      ("out_stream", list (list binding) rc.rc_outputs);
      ("iterations", ints rc.rc_iterations);
      ("fatal", opt str rc.rc_fatal);
      ("blocks", array str rc.rc_blocks);
      ("producers", ints rc.rc_producers);
      ("inputs", array pair rc.rc_inputs);
      ("outputs", array pair rc.rc_ports) ]

let write t =
  let st = t.k_state in
  obj
    [ ("version", int version);
      ("system", str t.k_system);
      ("strategy", str (Fixpoint.strategy_name t.k_strategy));
      ("policy", opt (fun p -> str (Supervisor.policy_name p)) t.k_policy);
      ("escalate_after", int t.k_escalate_after);
      ("inject", list (fun s -> tree (Codec.spec_json s)) t.k_inject);
      ("seed", int t.k_seed);
      ("fingerprint", str t.k_fingerprint);
      ("instant", int st.Simulate.st_instant);
      ("evaluations", int st.Simulate.st_evaluations);
      ("delays", vec st.Simulate.st_delays);
      ("nets", vec st.Simulate.st_nets);
      ("prev_nets", vec st.Simulate.st_prev_nets);
      ("supervisor", opt tree t.k_supervisor);
      ( "injector",
        opt
          (fun (instant, fired) ->
            obj [ ("instant", int instant); ("fired", int fired) ])
          t.k_injector );
      ("counters", opt (list pair) t.k_counters);
      ("monitor", opt tree t.k_monitor);
      ( "causal",
        opt
          (fun c buf -> Causal.write_json ~render:Codec.write_value buf c)
          t.k_causal );
      ("machine", opt tree t.k_machine);
      ("recording", opt write_recording t.k_recording) ]

let encode t =
  let buf = Buffer.create 65536 in
  write t buf;
  Buffer.contents buf

let to_json t = Json.parse (encode t)

let equal a b = String.equal (encode a) (encode b)

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> invalid_arg ("Checkpoint.of_json: missing field " ^ name)

let int_field name j =
  match field name j with Json.Int n -> n | _ -> malformed name

let str_field name j =
  match field name j with Json.Str s -> s | _ -> malformed name

let list_field name j =
  match field name j with Json.List l -> l | _ -> malformed name

let opt_field name j =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> Some v

let ints_of name j =
  Array.of_list
    (List.map
       (function Json.Int n -> n | _ -> malformed name)
       (list_field name j))

let bindings_of name = function
  | Json.List l ->
      List.map
        (function
          | Json.List [ Json.Str n; v ] -> (n, Codec.value_of_json v)
          | _ -> malformed name)
        l
  | _ -> malformed name

let pairs_of name j =
  Array.of_list
    (List.map
       (function
         | Json.List [ Json.Str n; Json.Int net ] -> (n, net)
         | _ -> malformed name)
       (list_field name j))

(* Queries index the recorded arrays by net, block and instant, so the
   shapes are checked here against the artifact's own net count and
   instant index: a well-formed but inconsistent recording fails as
   malformed, never as an out-of-bounds access. *)
let recording_of_json ~n_nets ~instants j =
  let rc =
    { rc_stream = List.map (bindings_of "stream") (list_field "stream" j);
      rc_nets =
        Array.of_list
          (List.map (Codec.vec_of_json "recording nets") (list_field "nets" j));
      rc_outputs =
        List.map (bindings_of "out_stream") (list_field "out_stream" j);
      rc_iterations = ints_of "iterations" j;
      rc_fatal =
        (match field "fatal" j with
        | Json.Null -> None
        | Json.Str s -> Some s
        | _ -> malformed "fatal");
      rc_blocks =
        Array.of_list
          (List.map
             (function Json.Str s -> s | _ -> malformed "blocks")
             (list_field "blocks" j));
      rc_producers = ints_of "producers" j;
      rc_inputs = pairs_of "inputs" j;
      rc_ports = pairs_of "outputs" j }
  in
  let net_ok n = n >= 0 && n < n_nets in
  if
    Array.length rc.rc_nets <> instants
    || Array.exists (fun v -> Array.length v <> n_nets) rc.rc_nets
    || List.length rc.rc_outputs <> instants
    || Array.length rc.rc_iterations <> instants
    || List.length rc.rc_stream < instants
  then malformed "recording (instant or net count)";
  if
    Array.length rc.rc_producers <> n_nets
    || Array.exists
         (fun p -> p < -3 || p >= Array.length rc.rc_blocks)
         rc.rc_producers
    || not (Array.for_all (fun (_, n) -> net_ok n) rc.rc_inputs)
    || not (Array.for_all (fun (_, n) -> net_ok n) rc.rc_ports)
  then malformed "recording (producers or ports)";
  rc

let of_json j =
  (match Json.member "version" j with
  | Some (Json.Int v) when v = version -> ()
  | Some (Json.Int v) ->
      invalid_arg
        (Printf.sprintf
           "Checkpoint.of_json: unsupported artifact version %d (this build \
            reads version %d)"
           v version)
  | _ -> malformed "version");
  let strategy =
    match Fixpoint.strategy_of_string (str_field "strategy" j) with
    | Some s -> s
    | None -> malformed "strategy"
  in
  let policy =
    match field "policy" j with
    | Json.Null -> None
    | Json.Str s -> (
        match Supervisor.policy_of_string s with
        | Some p -> Some p
        | None -> malformed "policy")
    | _ -> malformed "policy"
  in
  let state =
    { Simulate.st_instant = int_field "instant" j;
      st_evaluations = int_field "evaluations" j;
      st_delays = Codec.vec_of_json "delays" (field "delays" j);
      st_nets = Codec.vec_of_json "nets" (field "nets" j);
      st_prev_nets = Codec.vec_of_json "prev_nets" (field "prev_nets" j) }
  in
  let causal =
    Option.map
      (Causal.of_json ~unrender:Codec.value_of_json)
      (opt_field "causal" j)
  in
  let recording =
    Option.map
      (recording_of_json
         ~n_nets:(Array.length state.Simulate.st_nets)
         ~instants:state.Simulate.st_instant)
      (opt_field "recording" j)
  in
  if recording <> None && causal = None then
    malformed "recording without a causal section";
  { k_system = str_field "system" j;
    k_strategy = strategy;
    k_policy = policy;
    k_escalate_after = int_field "escalate_after" j;
    k_inject = List.map Codec.spec_of_json (list_field "inject" j);
    k_seed = int_field "seed" j;
    k_fingerprint = str_field "fingerprint" j;
    k_state = state;
    k_supervisor = opt_field "supervisor" j;
    k_injector =
      Option.map
        (fun ij -> (int_field "instant" ij, int_field "fired" ij))
        (opt_field "injector" j);
    k_counters =
      Option.map
        (fun _ -> Array.to_list (pairs_of "counters" j))
        (opt_field "counters" j);
    k_monitor = opt_field "monitor" j;
    k_causal = causal;
    k_machine = opt_field "machine" j;
    k_recording = recording }

(* ------------------------------ disk ------------------------------ *)

(* On disk an artifact is [{"digest":"<md5 hex>","artifact":<payload>}]
   plus a newline, where the digest is of the payload bytes exactly as
   written. [load] checks it before parsing, so a torn or altered file
   fails with a named error rather than resuming a different run. *)
let digest_key = {|{"digest":"|}

let artifact_key = {|","artifact":|}

let payload_at = String.length digest_key + 32 + String.length artifact_key

(* [save] writes through {!Durable.write_file}, so a crash mid-save
   leaves the previous artifact intact. It feeds the monitor's
   checkpoint-write accounting: byte volume and the [Sys.time] cost of
   the whole save (encoding, digest, durable write) on success, the
   data-loss failure flag on [Sys_error] (the error still propagates —
   the caller decides whether a failed write is fatal). *)
let save ?monitor t path =
  let t0 = Sys.time () in
  let payload = encode t in
  let header =
    digest_key ^ Digest.to_hex (Digest.string payload) ^ artifact_key
  in
  match Durable.write_file path [ header; payload; "}\n" ] with
  | () ->
      Option.iter
        (fun m ->
          Monitor.checkpoint_written m
            ~bytes:(String.length header + String.length payload + 2)
            ~seconds:(Sys.time () -. t0))
        monitor
  | exception Sys_error e ->
      Option.iter Monitor.checkpoint_write_failed monitor;
      raise (Sys_error e)

let reject contents =
  invalid_arg
    (if String.starts_with ~prefix:digest_key contents then
       "Checkpoint.load: content digest mismatch (altered or torn artifact)"
     else
       Printf.sprintf
         "Checkpoint.load: not a version %d run artifact (no content digest \
          header; version 1 artifacts predate it)"
         version)

let load path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length s in
  let intact =
    n >= payload_at + 2
    && String.starts_with ~prefix:digest_key s
    && String.sub s (payload_at - String.length artifact_key)
         (String.length artifact_key)
       = artifact_key
    && String.ends_with ~suffix:"}\n" s
    && Digest.to_hex (Digest.substring s payload_at (n - payload_at - 2))
       = String.sub s (String.length digest_key) 32
  in
  if not intact then reject s;
  match Json.member "artifact" (Json.parse s) with
  | Some j -> of_json j
  | None -> invalid_arg "Checkpoint.load: no artifact payload"
