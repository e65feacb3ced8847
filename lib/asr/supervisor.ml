type policy = Fail_fast | Hold_last | Absent | Retry of int

type fault_class = Trap | Budget_exceeded | Heap_exhausted | Step_limit | Retraction

type action =
  | Held
  | Went_absent
  | Recovered of int
  | Escalated
  | Aborted

type fault = {
  f_instant : int;
  f_block : int;
  f_block_name : string;
  f_class : fault_class;
  f_detail : string;
  f_action : action;
}

exception Fatal of fault

type health = {
  h_block : int;
  h_block_name : string;
  h_faults : int;
  h_recovered : int;
  h_streak : int;
  h_max_streak : int;
  h_last_fault_instant : int;
  h_quarantined : bool;
}

type t = {
  policy : policy;
  escalate_after : int;
  classify : exn -> (fault_class * string) option;
  step_budget : int option;
  telemetry : Telemetry.Registry.t option;
  (* Per-block state, sized lazily at first {!attach}. *)
  mutable n_blocks : int; (* -1 until attached *)
  mutable names : string array;
  mutable out_arity : int array;
  (* Last good outputs of previous instants ([committed]) and of this
     one ([staged]), per block and port, in two lanes: the [_ints] lane
     holds a [Def (Int n)] output as [n] and every other output as
     [min_int], which means "the value is in the boxed lane". Staging
     runs on every supervised application, so an int output is stored
     without a pointer and no minor collection promotes it. *)
  mutable committed : Domain.t array array;
  mutable committed_ints : int array array;
  mutable staged : Domain.t array array;
  mutable staged_ints : int array array;
  mutable staged_valid : bool array;
  mutable apps : int array; (* applications this instant *)
  mutable latched : bool array; (* contained this instant: substitute, don't run *)
  mutable faulty_instant : bool array; (* unrecovered fault this instant *)
  mutable consec : int array; (* consecutive faulty instants *)
  mutable quarantined : bool array;
  (* block health: contained faults (escalations are not faults),
     faults a retry absorbed, longest [consec], instant of the last
     contained fault (-1: none) *)
  mutable block_faults : int array;
  mutable block_recovered : int array;
  mutable max_consec : int array;
  mutable last_fault : int array;
  mutable escalated : int list; (* quarantined as this instant closed *)
  mutable instant : int;
  mutable in_instant : bool;
  mutable rev_log : fault list;
  mutable log_len : int;
  mutable dropped_log : int;
  mutable total_faults : int;
  mutable total_recovered : int;
  mutable instant_faults : int;
}

let policy_name = function
  | Fail_fast -> "fail-fast"
  | Hold_last -> "hold-last"
  | Absent -> "absent"
  | Retry n -> Printf.sprintf "retry:%d" n

let policy_of_string s =
  match s with
  | "fail" | "fail-fast" -> Some Fail_fast
  | "hold" | "hold-last" -> Some Hold_last
  | "absent" -> Some Absent
  | _ ->
      let prefix = "retry:" in
      let lp = String.length prefix in
      if String.length s > lp && String.sub s 0 lp = prefix then
        match int_of_string_opt (String.sub s lp (String.length s - lp)) with
        | Some n when n >= 0 -> Some (Retry n)
        | _ -> None
      else None

let class_name = function
  | Trap -> "trap"
  | Budget_exceeded -> "budget-exceeded"
  | Heap_exhausted -> "heap-exhausted"
  | Step_limit -> "step-limit"
  | Retraction -> "retraction"

let action_name = function
  | Held -> "held"
  | Went_absent -> "absent"
  | Recovered n -> Printf.sprintf "recovered after %d failed attempt%s" n
                     (if n = 1 then "" else "s")
  | Escalated -> "escalated to permanent quarantine"
  | Aborted -> "aborted (fail-fast)"

let fault_to_string f =
  Printf.sprintf "instant %d: block %d (%s) %s: %s -> %s" f.f_instant f.f_block
    f.f_block_name (class_name f.f_class) f.f_detail (action_name f.f_action)

(* The default classifier recognizes injected faults plus the standard
   exceptions a misbehaving block function can raise. Unknown
   exceptions return [None] and propagate: the supervisor contains
   faults, it does not swallow bugs in the harness itself. *)
let default_classify = function
  | Inject.Injected (k, msg) ->
      let cls =
        match k with
        | Inject.Trap -> Trap
        | Inject.Cycle_spike -> Budget_exceeded
        | Inject.Alloc_storm -> Heap_exhausted
      in
      Some (cls, msg)
  | Division_by_zero -> Some (Trap, "division by zero")
  | Invalid_argument m -> Some (Trap, "invalid argument: " ^ m)
  | Failure m -> Some (Trap, m)
  | Stack_overflow -> Some (Trap, "stack overflow")
  | Out_of_memory -> Some (Heap_exhausted, "out of memory")
  | _ -> None

let max_log = 1000

let create ?(policy = Hold_last) ?(escalate_after = 3) ?step_budget ?classify
    ?telemetry () =
  if escalate_after < 1 then
    invalid_arg "Supervisor.create: escalate_after must be >= 1";
  (match step_budget with
  | Some k when k < 1 ->
      invalid_arg "Supervisor.create: step_budget must be >= 1"
  | _ -> ());
  let classify =
    match classify with
    | None -> default_classify
    | Some f -> (
        fun e -> match f e with Some _ as r -> r | None -> default_classify e)
  in
  { policy;
    escalate_after;
    classify;
    step_budget;
    telemetry;
    n_blocks = -1;
    names = [||];
    out_arity = [||];
    committed = [||];
    committed_ints = [||];
    staged = [||];
    staged_ints = [||];
    staged_valid = [||];
    apps = [||];
    latched = [||];
    faulty_instant = [||];
    consec = [||];
    quarantined = [||];
    block_faults = [||];
    block_recovered = [||];
    max_consec = [||];
    last_fault = [||];
    escalated = [];
    instant = 0;
    in_instant = false;
    rev_log = [];
    log_len = 0;
    dropped_log = 0;
    total_faults = 0;
    total_recovered = 0;
    instant_faults = 0 }

let attach t (c : Graph.compiled) =
  let n = Array.length c.Graph.c_blocks in
  if t.n_blocks = -1 then begin
    t.n_blocks <- n;
    t.names <- Array.map (fun (b, _, _) -> b.Block.name) c.Graph.c_blocks;
    t.out_arity <- Array.map (fun (b, _, _) -> b.Block.n_out) c.Graph.c_blocks;
    let ports v = Array.init n (fun bi -> Array.make t.out_arity.(bi) v) in
    t.committed <- ports Domain.Bottom;
    t.committed_ints <- ports min_int;
    t.staged <- ports Domain.Bottom;
    t.staged_ints <- ports min_int;
    t.staged_valid <- Array.make n false;
    t.apps <- Array.make n 0;
    t.latched <- Array.make n false;
    t.faulty_instant <- Array.make n false;
    t.consec <- Array.make n 0;
    t.quarantined <- Array.make n false;
    t.block_faults <- Array.make n 0;
    t.block_recovered <- Array.make n 0;
    t.max_consec <- Array.make n 0;
    t.last_fault <- Array.make n (-1)
  end
  else if t.n_blocks <> n then
    invalid_arg
      (Printf.sprintf
         "Supervisor: already attached to a graph with %d blocks, got %d"
         t.n_blocks n)

let in_instant t = t.in_instant

let begin_instant t =
  if t.in_instant then invalid_arg "Supervisor.begin_instant: instant open";
  t.in_instant <- true;
  t.instant_faults <- 0;
  t.escalated <- [];
  if t.n_blocks > 0 then begin
    Array.fill t.staged_valid 0 t.n_blocks false;
    Array.fill t.apps 0 t.n_blocks 0;
    Array.fill t.latched 0 t.n_blocks false;
    Array.fill t.faulty_instant 0 t.n_blocks false
  end

let count_telemetry t name n =
  match t.telemetry with
  | Some reg -> Telemetry.Registry.count reg name n
  | None -> ()

let log_fault t f =
  if t.log_len < max_log then begin
    t.rev_log <- f :: t.rev_log;
    t.log_len <- t.log_len + 1
  end
  else t.dropped_log <- t.dropped_log + 1

let end_instant t =
  if not t.in_instant then invalid_arg "Supervisor.end_instant: no instant open";
  t.in_instant <- false;
  for bi = 0 to t.n_blocks - 1 do
    (* an element loop: a one-port [Array.blit] costs more in the
       runtime call than the copy *)
    if t.staged_valid.(bi) then begin
      let src = t.staged_ints.(bi) and dst = t.committed_ints.(bi) in
      for p = 0 to Array.length src - 1 do
        let n = src.(p) in
        dst.(p) <- n;
        if n = min_int then t.committed.(bi).(p) <- t.staged.(bi).(p)
      done
    end;
    if t.faulty_instant.(bi) then begin
      t.consec.(bi) <- t.consec.(bi) + 1;
      if t.consec.(bi) > t.max_consec.(bi) then
        t.max_consec.(bi) <- t.consec.(bi);
      if t.consec.(bi) >= t.escalate_after && not t.quarantined.(bi) then begin
        t.quarantined.(bi) <- true;
        t.escalated <- bi :: t.escalated;
        let f =
          { f_instant = t.instant;
            f_block = bi;
            f_block_name = t.names.(bi);
            f_class = Trap;
            f_detail =
              Printf.sprintf "%d consecutive faulty instants" t.consec.(bi);
            f_action = Escalated }
        in
        log_fault t f;
        count_telemetry t "asr.supervisor.quarantined" 1
      end
    end
    else if not t.quarantined.(bi) then t.consec.(bi) <- 0
  done;
  t.instant <- t.instant + 1

(* The substitution for a contained block must be consistent (under lub)
   with whatever the block already wrote to its nets this instant, or
   containment itself would trigger a retraction. If the block staged
   outputs earlier in the instant, those values are already in the nets
   and are the only safe choice. Otherwise the nets hold ⊥ for this
   block, and anything is consistent: [Hold_last]/[Retry] substitute the
   last committed outputs, [Absent] substitutes ⊥. An application's
   outputs live at [dst.(slots.(p))]: the net slots of a fused store,
   or a result buffer the fixpoint then merges. *)
let lane ints vals p =
  let n = ints.(p) in
  if n = min_int then vals.(p) else Domain.int n

let substitute t bi dst slots =
  let value p =
    if t.staged_valid.(bi) then lane t.staged_ints.(bi) t.staged.(bi) p
    else
      match t.policy with
      | Absent -> Domain.Bottom
      | Fail_fast | Hold_last | Retry _ ->
          lane t.committed_ints.(bi) t.committed.(bi) p
  in
  for p = 0 to t.out_arity.(bi) - 1 do
    dst.(slots.(p)) <- value p
  done

let stage t bi dst slots =
  let ints = t.staged_ints.(bi) in
  for p = 0 to t.out_arity.(bi) - 1 do
    let v = dst.(slots.(p)) in
    let n = Domain.int_lane v in
    ints.(p) <- n;
    if n = min_int then t.staged.(bi).(p) <- v
  done;
  t.staged_valid.(bi) <- true

let fault_action t bi =
  if t.staged_valid.(bi) then Held
  else match t.policy with Absent -> Went_absent | _ -> Held

(* Log and latch a fault; under [Fail_fast] raise instead of returning
   to let the caller substitute. *)
let contain t ~bi ~cls ~detail =
  t.latched.(bi) <- true;
  t.faulty_instant.(bi) <- true;
  t.total_faults <- t.total_faults + 1;
  t.instant_faults <- t.instant_faults + 1;
  t.block_faults.(bi) <- t.block_faults.(bi) + 1;
  t.last_fault.(bi) <- t.instant;
  let action = if t.policy = Fail_fast then Aborted else fault_action t bi in
  let f =
    { f_instant = t.instant;
      f_block = bi;
      f_block_name = t.names.(bi);
      f_class = cls;
      f_detail = detail;
      f_action = action }
  in
  log_fault t f;
  count_telemetry t "asr.supervisor.faults" 1;
  count_telemetry t ("asr.supervisor.fault." ^ class_name cls) 1;
  if t.policy = Fail_fast then raise (Fatal f)

(* A top-level recursion over explicit arguments: the retry loop builds
   no closure per application. *)
let rec attempt t bi step nets dst slots ~retries failed =
  match step nets with
  | () ->
      if failed > 0 then begin
        t.total_recovered <- t.total_recovered + 1;
        t.block_recovered.(bi) <- t.block_recovered.(bi) + 1;
        let f =
          { f_instant = t.instant;
            f_block = bi;
            f_block_name = t.names.(bi);
            f_class = Trap;
            f_detail = "transient fault absorbed by retry";
            f_action = Recovered failed }
        in
        log_fault t f;
        count_telemetry t "asr.supervisor.recovered" 1
      end;
      stage t bi dst slots
  | exception e -> (
      match t.classify e with
      | None -> raise e
      | Some (cls, detail) ->
          if failed < retries then
            attempt t bi step nets dst slots ~retries (failed + 1)
          else begin
            let detail =
              if retries > 0 then
                Printf.sprintf "%s (after %d retries)" detail retries
              else detail
            in
            contain t ~bi ~cls ~detail;
            substitute t bi dst slots
          end)

let guard t bi step nets dst slots =
  if t.n_blocks = -1 then invalid_arg "Supervisor.guard: not attached";
  if bi < 0 || bi >= t.n_blocks then
    invalid_arg (Printf.sprintf "Supervisor.guard: no block %d" bi);
  if t.quarantined.(bi) || t.latched.(bi) then substitute t bi dst slots
  else begin
    t.apps.(bi) <- t.apps.(bi) + 1;
    match t.step_budget with
    | Some k when t.apps.(bi) > k ->
        contain t ~bi ~cls:Step_limit
          ~detail:(Printf.sprintf "more than %d applications in one instant" k);
        substitute t bi dst slots
    | _ ->
        let retries = match t.policy with Retry n -> max 0 n | _ -> 0 in
        attempt t bi step nets dst slots ~retries 0
  end

(* Called by the fixpoint when lub-merging a block's outputs hit
   [Domain.Inconsistent]: the block retracted a defined value. The only
   substitution consistent with the nets is their current contents, so
   containment here means "freeze the block at what it already wrote".
   Returns [true] when contained; [false] when the block was already
   contained this instant and still produced a retraction — that is a
   supervisor-level invariant violation and the fixpoint raises
   [Fixpoint.Nonmonotonic] as it would unsupervised. *)
let retract t bi nets out_nets detail =
  if t.n_blocks = -1 || bi < 0 || bi >= t.n_blocks then false
  else if t.latched.(bi) then false
  else begin
    stage t bi nets out_nets;
    contain t ~bi ~cls:Retraction ~detail;
    true
  end

(* The probe owns the supervised instant: every evaluation it observes
   is one instant, opened once the inputs are bound and closed once the
   fixpoint settled. *)
let probe t =
  { Probe.none with
    Probe.instant_begin =
      (fun c ~plan:_ ~inputs:_ ~delay_values:_ ->
        attach t c;
        begin_instant t);
    instant_end =
      (fun ~nets:_ ~iterations:_ ~block_evaluations:_ -> end_instant t);
    guard = Some (guard t);
    retract = retract t }

(* -------------------------- inspection --------------------------- *)

let policy t = t.policy

let escalation_threshold t = t.escalate_after

let faults t = List.rev t.rev_log

let fault_count t = t.total_faults

let recovered_count t = t.total_recovered

let dropped_faults t = t.dropped_log

let instant_fault_count t = t.instant_faults

let is_quarantined t bi = t.n_blocks > 0 && bi >= 0 && bi < t.n_blocks && t.quarantined.(bi)

(* Provenance tag for a causal trace: when block [bi]'s outputs this
   instant are a containment substitution, name the mechanism and the
   value source so held/absent values carry their policy in the trace. *)
let containment t bi =
  if t.n_blocks <= 0 || bi < 0 || bi >= t.n_blocks then None
  else if not (t.quarantined.(bi) || t.latched.(bi)) then None
  else
    let source =
      if t.staged_valid.(bi) then "held"
      else
        match t.policy with
        | Absent -> "absent"
        | Fail_fast | Hold_last | Retry _ -> "hold-last"
    in
    Some ((if t.quarantined.(bi) then "quarantined:" else "contained:") ^ source)

let quarantined_blocks t =
  if t.n_blocks <= 0 then []
  else
    List.filter
      (fun bi -> t.quarantined.(bi))
      (List.init t.n_blocks (fun i -> i))

let escalated t = List.rev t.escalated

(* Blocks that ever faulted, in block order: the health table is as
   long as the fault history, not the graph. *)
let faulted_blocks t =
  let rec go bi acc =
    if bi < 0 then acc
    else
      go (bi - 1)
        (if t.block_faults.(bi) > 0 || t.block_recovered.(bi) > 0 then bi :: acc
         else acc)
  in
  go (t.n_blocks - 1) []

let health t =
  List.map
    (fun bi ->
      { h_block = bi;
        h_block_name = t.names.(bi);
        h_faults = t.block_faults.(bi);
        h_recovered = t.block_recovered.(bi);
        h_streak = t.consec.(bi);
        h_max_streak = t.max_consec.(bi);
        h_last_fault_instant = t.last_fault.(bi);
        h_quarantined = t.quarantined.(bi) })
    (faulted_blocks t)

(* ------------------------- state snapshot ------------------------- *)

module Json = Telemetry.Json

let class_of_name = function
  | "trap" -> Some Trap
  | "budget-exceeded" -> Some Budget_exceeded
  | "heap-exhausted" -> Some Heap_exhausted
  | "step-limit" -> Some Step_limit
  | "retraction" -> Some Retraction
  | _ -> None

(* [action_name] is prose ("recovered after 3 failed attempts"); the
   checkpoint codec needs a tag that parses back, so actions serialize
   as ["held"|"absent"|"recovered:N"|"escalated"|"aborted"]. *)
let action_tag = function
  | Held -> "held"
  | Went_absent -> "absent"
  | Recovered n -> Printf.sprintf "recovered:%d" n
  | Escalated -> "escalated"
  | Aborted -> "aborted"

let action_of_tag s =
  match s with
  | "held" -> Some Held
  | "absent" -> Some Went_absent
  | "escalated" -> Some Escalated
  | "aborted" -> Some Aborted
  | _ ->
      let prefix = "recovered:" in
      let lp = String.length prefix in
      if String.length s > lp && String.sub s 0 lp = prefix then
        match int_of_string_opt (String.sub s lp (String.length s - lp)) with
        | Some n when n >= 0 -> Some (Recovered n)
        | _ -> None
      else None

let state_malformed what =
  invalid_arg ("Supervisor.restore_state: malformed " ^ what)

let int_member name j =
  match Json.member name j with
  | Some (Json.Int n) -> n
  | _ -> state_malformed name

let str_member name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> state_malformed name

let fault_json f =
  Json.Obj
    [ ("instant", Json.Int f.f_instant);
      ("block", Json.Int f.f_block);
      ("block_name", Json.Str f.f_block_name);
      ("class", Json.Str (class_name f.f_class));
      ("detail", Json.Str f.f_detail);
      ("action", Json.Str (action_tag f.f_action)) ]

let health_json t =
  Json.List
    (List.map
       (fun h ->
         Json.Obj
           [ ("block", Json.Int h.h_block);
             ("block_name", Json.Str h.h_block_name);
             ("faults", Json.Int h.h_faults);
             ("recovered", Json.Int h.h_recovered);
             ("streak", Json.Int h.h_streak);
             ("max_streak", Json.Int h.h_max_streak);
             ("last_fault_instant", Json.Int h.h_last_fault_instant);
             ("quarantined", Json.Bool h.h_quarantined) ])
       (health t))

let fault_of_json j =
  { f_instant = int_member "instant" j;
    f_block = int_member "block" j;
    f_block_name = str_member "block_name" j;
    f_class =
      (match class_of_name (str_member "class" j) with
      | Some c -> c
      | None -> state_malformed "class");
    f_detail = str_member "detail" j;
    f_action =
      (match action_of_tag (str_member "action" j) with
      | Some a -> a
      | None -> state_malformed "action") }

let clear_health t =
  if t.n_blocks > 0 then begin
    Array.fill t.block_faults 0 t.n_blocks 0;
    Array.fill t.block_recovered 0 t.n_blocks 0;
    Array.fill t.max_consec 0 t.n_blocks 0;
    Array.fill t.last_fault 0 t.n_blocks (-1)
  end

(* Only the inter-instant registers travel: the per-instant ones
   (staged, latched, application counts, ...) are cleared by the next
   [begin_instant], so a checkpoint taken between instants never needs
   them. Codec reals ride as IEEE-754 bit patterns via [Codec]. *)
let state_json t =
  if t.in_instant then
    invalid_arg "Supervisor.state_json: instant open";
  let vec bi =
    Json.List
      (List.init t.out_arity.(bi) (fun p ->
           Codec.value_json (lane t.committed_ints.(bi) t.committed.(bi) p)))
  in
  let ints a = Json.List (Array.to_list (Array.map (fun n -> Json.Int n) a)) in
  let bools a =
    Json.List (Array.to_list (Array.map (fun b -> Json.Bool b) a))
  in
  Json.Obj
    [ ("policy", Json.Str (policy_name t.policy));
      ("escalate_after", Json.Int t.escalate_after);
      ("instant", Json.Int t.instant);
      ( "committed",
        Json.List (List.init (max 0 t.n_blocks) vec) );
      ("consec", ints t.consec);
      ("quarantined", bools t.quarantined);
      (* the other health registers, of the blocks that ever faulted *)
      ( "block_health",
        Json.List
          (List.map
             (fun bi ->
               Json.Obj
                 [ ("block", Json.Int bi);
                   ("faults", Json.Int t.block_faults.(bi));
                   ("recovered", Json.Int t.block_recovered.(bi));
                   ("max_streak", Json.Int t.max_consec.(bi));
                   ("last_fault_instant", Json.Int t.last_fault.(bi)) ])
             (faulted_blocks t)) );
      ("total_faults", Json.Int t.total_faults);
      ("total_recovered", Json.Int t.total_recovered);
      ("dropped_log", Json.Int t.dropped_log);
      ("log", Json.List (List.map fault_json (faults t))) ]

let restore_state t j =
  if t.n_blocks = -1 then
    invalid_arg "Supervisor.restore_state: not attached";
  (match Json.member "policy" j with
  | Some (Json.Str s) when policy_of_string s = Some t.policy -> ()
  | _ -> state_malformed "policy (mismatch with this supervisor)");
  if int_member "escalate_after" j <> t.escalate_after then
    state_malformed "escalate_after (mismatch with this supervisor)";
  let committed =
    match Json.member "committed" j with
    | Some (Json.List vs) ->
        List.map
          (function
            | Json.List v ->
                Array.of_list (List.map Codec.value_of_json v)
            | _ -> state_malformed "committed")
          vs
    | _ -> state_malformed "committed"
  in
  if List.length committed <> t.n_blocks then
    state_malformed "committed (block count)";
  List.iteri
    (fun bi v ->
      if Array.length v <> Array.length t.committed.(bi) then
        state_malformed "committed (arity)";
      Array.iteri
        (fun p v ->
          t.committed.(bi).(p) <- v;
          t.committed_ints.(bi).(p) <- Domain.int_lane v)
        v)
    committed;
  let fill_ints name dst =
    match Json.member name j with
    | Some (Json.List l) when List.length l = t.n_blocks ->
        List.iteri
          (fun i v ->
            match v with
            | Json.Int n -> dst.(i) <- n
            | _ -> state_malformed name)
          l
    | _ -> state_malformed name
  in
  fill_ints "consec" t.consec;
  (match Json.member "quarantined" j with
  | Some (Json.List l) when List.length l = t.n_blocks ->
      List.iteri
        (fun i v ->
          match v with
          | Json.Bool b -> t.quarantined.(i) <- b
          | _ -> state_malformed "quarantined")
        l
  | _ -> state_malformed "quarantined");
  clear_health t;
  (match Json.member "block_health" j with
  | Some (Json.List l) ->
      List.iter
        (fun h ->
          let bi = int_member "block" h in
          if bi < 0 || bi >= t.n_blocks then state_malformed "block_health";
          t.block_faults.(bi) <- int_member "faults" h;
          t.block_recovered.(bi) <- int_member "recovered" h;
          t.max_consec.(bi) <- int_member "max_streak" h;
          t.last_fault.(bi) <- int_member "last_fault_instant" h)
        l
  | _ -> state_malformed "block_health");
  t.instant <- int_member "instant" j;
  t.total_faults <- int_member "total_faults" j;
  t.total_recovered <- int_member "total_recovered" j;
  t.dropped_log <- int_member "dropped_log" j;
  (match Json.member "log" j with
  | Some (Json.List l) ->
      let fs = List.map fault_of_json l in
      t.rev_log <- List.rev fs;
      t.log_len <- List.length fs
  | _ -> state_malformed "log");
  t.in_instant <- false;
  t.instant_faults <- 0;
  t.escalated <- [];
  if t.n_blocks > 0 then begin
    Array.fill t.staged_valid 0 t.n_blocks false;
    Array.fill t.apps 0 t.n_blocks 0;
    Array.fill t.latched 0 t.n_blocks false;
    Array.fill t.faulty_instant 0 t.n_blocks false
  end

let faults_json t =
  Telemetry.Json.Obj
    [ ("policy", Telemetry.Json.Str (policy_name t.policy));
      ("escalate_after", Telemetry.Json.Int t.escalate_after);
      ("total_faults", Telemetry.Json.Int t.total_faults);
      ("recovered", Telemetry.Json.Int t.total_recovered);
      ("dropped", Telemetry.Json.Int t.dropped_log);
      ( "quarantined",
        Telemetry.Json.List
          (List.map (fun bi -> Telemetry.Json.Int bi) (quarantined_blocks t)) );
      ("faults", Telemetry.Json.List (List.map fault_json (faults t))) ]

let reset t =
  t.instant <- 0;
  t.in_instant <- false;
  t.rev_log <- [];
  t.log_len <- 0;
  t.dropped_log <- 0;
  t.total_faults <- 0;
  t.total_recovered <- 0;
  t.instant_faults <- 0;
  t.escalated <- [];
  clear_health t;
  if t.n_blocks > 0 then begin
    for bi = 0 to t.n_blocks - 1 do
      let arity = t.out_arity.(bi) in
      Array.fill t.committed.(bi) 0 arity Domain.Bottom;
      Array.fill t.committed_ints.(bi) 0 arity min_int;
      Array.fill t.staged.(bi) 0 arity Domain.Bottom;
      Array.fill t.staged_ints.(bi) 0 arity min_int
    done;
    Array.fill t.staged_valid 0 t.n_blocks false;
    Array.fill t.apps 0 t.n_blocks 0;
    Array.fill t.latched 0 t.n_blocks false;
    Array.fill t.faulty_instant 0 t.n_blocks false;
    Array.fill t.consec 0 t.n_blocks 0;
    Array.fill t.quarantined 0 t.n_blocks false
  end
