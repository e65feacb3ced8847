module Value = Mj_runtime.Value
module Machine = Mj_runtime.Machine
module Heap = Mj_runtime.Heap

type engine = Engine_interp | Engine_vm | Engine_jit

type ops = {
  o_machine : Machine.t;
  o_new : string -> Value.t list -> Value.t;
  o_call : Value.t -> string -> Value.t list -> Value.t;
}

type t = {
  ops : ops;
  instance : Value.t;
  cls : string;
  n_in : int;
  n_out : int;
  init_cycles : int;
  mutable last_reaction : int;
  mutable reaction_budget : int option;
  stateless : bool;
}

let ops_of_engine ~elide ?profile ?lines engine checked =
  (* The elision plan only affects the bytecode engines; the interpreter
     walks the AST and always performs the modelled bounds check. *)
  let image () =
    Mj_bytecode.Compile.compile
      ?elide:
        (if elide then
           Some (Analysis.Elide.plan (Analysis.Facts.of_checked checked))
         else None)
      checked
  in
  match engine with
  | Engine_interp ->
      let s = Mj_runtime.Interp.create ?profile ?lines checked in
      { o_machine = Mj_runtime.Interp.machine s;
        o_new = Mj_runtime.Interp.new_instance s;
        o_call = Mj_runtime.Interp.call s }
  | Engine_vm ->
      let s = Mj_bytecode.Vm.create ?profile ?lines (image ()) in
      { o_machine = Mj_bytecode.Vm.machine s;
        o_new = Mj_bytecode.Vm.new_instance s;
        o_call = Mj_bytecode.Vm.call s }
  | Engine_jit ->
      let s = Mj_bytecode.Jit.create ?profile ?lines (image ()) in
      { o_machine = Mj_bytecode.Jit.machine s;
        o_new = Mj_bytecode.Jit.new_instance s;
        o_call = Mj_bytecode.Jit.call s }

(* Purity of the reaction: no field or static stores reachable from run. *)
let writes_state (checked : Mj.Typecheck.checked) ~cls =
  let graph = Analysis.Call_graph.build checked in
  let stores =
    Mj.Visit.exists_expr (fun e ->
        match e.Mj.Ast.expr with
        | Mj.Ast.Assign ((Mj.Ast.Lfield _ | Mj.Ast.Lstatic_field _), _)
        | Mj.Ast.Op_assign (_, (Mj.Ast.Lfield _ | Mj.Ast.Lstatic_field _), _)
        | Mj.Ast.Pre_incr (_, (Mj.Ast.Lfield _ | Mj.Ast.Lstatic_field _))
        | Mj.Ast.Post_incr (_, (Mj.Ast.Lfield _ | Mj.Ast.Lstatic_field _)) ->
            true
        | _ -> false)
  in
  List.exists
    (fun node ->
      List.exists
        (fun body -> stores body.Mj.Visit.b_stmts)
        (Analysis.Call_graph.bodies graph node))
    (Analysis.Call_graph.reachable graph
       ~roots:(Option.to_list (Analysis.Call_graph.method_node graph cls "run")))

let data_to_value m = function
  | Asr.Data.Int n -> Value.Int n
  | Asr.Data.Real f -> Value.Double f
  | Asr.Data.Bool b -> Value.Bool b
  | Asr.Data.Str s -> Value.Str s
  | Asr.Data.Int_array a -> Machine.make_int_array m a
  | Asr.Data.Tuple _ | Asr.Data.Absent ->
      invalid_arg "elaborate: tuples cannot cross an MJ port"

(* An output port left unwritten or written [null] is ⊥, as the
   abstraction function reads it. *)
let output_domain m = function
  | None | Some Value.Null -> Asr.Domain.Bottom
  | Some (Value.Int n) -> Asr.Domain.Def (Asr.Data.Int n)
  | Some (Value.Double f) -> Asr.Domain.Def (Asr.Data.Real f)
  | Some (Value.Bool b) -> Asr.Domain.Def (Asr.Data.Bool b)
  | Some (Value.Str s) -> Asr.Domain.Def (Asr.Data.Str s)
  | Some (Value.Ref _ as v) ->
      Asr.Domain.Def (Asr.Data.Int_array (Machine.int_array m v))

let elaborate ?(engine = Engine_vm) ?(enforce_policy = true)
    ?(bounded_memory = true) ?gc_threshold ?heap_limit_words
    ?(elide_bounds_checks = false) ?profile ?cost_lines checked ~cls =
  if enforce_policy && not (Policy.Asr_policy.compliant checked) then
    invalid_arg
      (Printf.sprintf
         "elaborate: program violates the ASR policy of use (class %s); \
          refine it first or pass ~enforce_policy:false"
         cls);
  if not (List.mem cls (Mj.Symtab.subclasses checked.symtab "ASR")) then
    invalid_arg (Printf.sprintf "elaborate: class %s does not extend ASR" cls);
  let ops =
    ops_of_engine ~elide:elide_bounds_checks ?profile ?lines:cost_lines engine
      checked
  in
  let m = ops.o_machine in
  Heap.set_phase m.Machine.heap Heap.Init;
  Heap.set_limit_words m.Machine.heap heap_limit_words;
  let instance = ops.o_new cls [] in
  let n_in, n_out = Machine.ports_of m instance in
  let init_cycles = Mj_runtime.Cost.cycles m.Machine.cost in
  Heap.set_phase m.Machine.heap Heap.Reactive;
  Heap.forbid_reactive_alloc m.Machine.heap bounded_memory;
  Heap.configure_gc m.Machine.heap ~threshold_words:gc_threshold;
  let stateless = not (writes_state checked ~cls) in
  { ops; instance; cls; n_in; n_out; init_cycles; last_reaction = 0;
    reaction_budget = None; stateless }

let ports t = (t.n_in, t.n_out)

let init_cycles t = t.init_cycles

let machine t = t.ops.o_machine

let console t = Buffer.contents t.ops.o_machine.Machine.console

let last_reaction_cycles t = t.last_reaction

let total_cycles t = Mj_runtime.Cost.cycles t.ops.o_machine.Machine.cost

(* The watchdog's trip point [before + budget], saturated to the int
   range: a budget near [max_int] means "no practical limit", not a
   sum that wraps negative and trips on the first charge. *)
let deadline ~before ~budget =
  if budget > 0 && before > max_int - budget then max_int
  else if budget < 0 && before < min_int - budget then min_int
  else before + budget

let reaction t m inputs =
  (* Port marshalling is the environment's work, not the reaction's:
     it happens in the Init phase so bounded-memory enforcement only
     covers the design's own code. *)
  Heap.set_phase m.Machine.heap Heap.Init;
  Machine.clear_io m t.instance;
  Array.iteri
    (fun i input ->
      match input with
      | Asr.Domain.Bottom -> Machine.set_input m t.instance i None
      | Asr.Domain.Def v ->
          Machine.set_input m t.instance i (Some (data_to_value m v)))
    inputs;
  Heap.set_phase m.Machine.heap Heap.Reactive;
  let before = Mj_runtime.Cost.cycles m.Machine.cost in
  (* the watchdog meters the reaction only, not the environment's
     marshalling work above *)
  (match t.reaction_budget with
  | Some budget ->
      Mj_runtime.Cost.set_budget m.Machine.cost (Some (deadline ~before ~budget))
  | None -> ());
  Fun.protect
    ~finally:(fun () -> Mj_runtime.Cost.set_budget m.Machine.cost None)
    (fun () -> ignore (t.ops.o_call t.instance "run" []));
  t.last_reaction <- Mj_runtime.Cost.cycles m.Machine.cost - before;
  Heap.set_phase m.Machine.heap Heap.Init;
  Array.init t.n_out (fun i ->
      output_domain m (Machine.output_port m t.instance i))

(* Whether the reaction returns or traps, what it allocated and left
   unreachable is reclaimed in the host heap when it ends (the model's
   counters keep every word: see [Heap.collect]). *)
let react t inputs =
  if Array.length inputs <> t.n_in then
    invalid_arg
      (Printf.sprintf "react: %s expects %d inputs, got %d" t.cls t.n_in
         (Array.length inputs));
  let m = t.ops.o_machine in
  Fun.protect
    ~finally:(fun () -> Machine.collect m [ t.instance ])
    (fun () -> reaction t m inputs)

let react_bounded t ~budget_cycles inputs =
  t.reaction_budget <- Some budget_cycles;
  Fun.protect
    ~finally:(fun () -> t.reaction_budget <- None)
    (fun () -> react t inputs)

let to_block ?budget_cycles t =
  if not t.stateless then
    invalid_arg
      (Printf.sprintf
         "to_block: %s.run writes fields; drive it with react instead" t.cls);
  let react t inputs =
    match budget_cycles with
    | Some budget_cycles -> react_bounded t ~budget_cycles inputs
    | None -> react t inputs
  in
  (* Strict: the fixed point may apply the block with partial inputs;
     only a fully-defined input vector triggers the reaction. *)
  Asr.Block.make ~name:("mj:" ^ t.cls) ~n_in:t.n_in ~n_out:t.n_out
    (fun inputs ->
      if Array.for_all Asr.Domain.is_def inputs then react t inputs
      else Array.make t.n_out Asr.Domain.Bottom)

(* ---------------------- machine checkpointing --------------------- *)

let machine_state t = Mj_runtime.Snapshot.capture t.ops.o_machine

let restore_machine_state t s = Mj_runtime.Snapshot.restore s t.ops.o_machine

let machine_state_json t = Mj_runtime.Snapshot.to_json (machine_state t)

let restore_machine_json t j =
  restore_machine_state t (Mj_runtime.Snapshot.of_json j)

(* A stateful design's run() advances its fields, so running it twice in
   one instant double-steps the state. Nets only rise within an instant,
   so once every input is defined the block sees the same input vector
   for the rest of the instant: the first such application runs the
   reaction, and every further one returns its outputs. N applications
   are then indistinguishable from one — same outputs, same final heap,
   same cycle meter — at no cost per instant. An application that raised
   left no outputs, so a retry runs the reaction again on the state the
   failed attempt left. The caller announces instant boundaries through
   the returned thunk. *)
let to_reapplicable_block ?budget_cycles t =
  let outputs = ref None in
  let new_instant () = outputs := None in
  let react t inputs =
    match budget_cycles with
    | Some budget_cycles -> react_bounded t ~budget_cycles inputs
    | None -> react t inputs
  in
  let block =
    Asr.Block.make ~name:("mj:" ^ t.cls) ~n_in:t.n_in ~n_out:t.n_out
      (fun inputs ->
        if Array.for_all Asr.Domain.is_def inputs then (
          match !outputs with
          | Some outs -> outs
          | None ->
              let outs = react t inputs in
              outputs := Some outs;
              outs)
        else Array.make t.n_out Asr.Domain.Bottom)
  in
  (block, new_instant)

(* The design as a one-block ASR system: environment ports "0".."n-1"
   on both sides of the re-applicable block, so every strategy (chaotic
   iteration included) sees one reaction per instant. *)
let system ?budget_cycles t =
  let block, new_instant = to_reapplicable_block ?budget_cycles t in
  let g = Asr.Graph.create ("simulate:" ^ t.cls) in
  let b = Asr.Graph.add_block g block in
  for i = 0 to t.n_in - 1 do
    let inp = Asr.Graph.add_input g (string_of_int i) in
    Asr.Graph.connect g ~src:(Asr.Graph.out_port inp 0)
      ~dst:(Asr.Graph.in_port b i)
  done;
  for j = 0 to t.n_out - 1 do
    let out = Asr.Graph.add_output g (string_of_int j) in
    Asr.Graph.connect g ~src:(Asr.Graph.out_port b j)
      ~dst:(Asr.Graph.in_port out 0)
  done;
  (g, new_instant)

(* Map the engine-level traps onto supervisor fault classes. The heap
   message prefixes are the ones [Heap] actually raises: a blown heap
   limit starts with "heap exhausted", the bounded-memory policy trap
   mentions the reactive phase; everything else a reaction can raise
   ([Runtime_error]: bounds, null, division by zero, …) is an ordinary
   trap. *)
let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let fault_classifier = function
  | Mj_runtime.Cost.Budget_exceeded cycles ->
      Some
        ( Asr.Supervisor.Budget_exceeded,
          Printf.sprintf "reaction blew its cycle budget at meter reading %d"
            cycles )
  | Heap.Runtime_error msg when starts_with ~prefix:"heap exhausted" msg ->
      Some (Asr.Supervisor.Heap_exhausted, msg)
  | Heap.Runtime_error msg
    when starts_with ~prefix:"allocation during the reactive phase" msg ->
      Some (Asr.Supervisor.Heap_exhausted, msg)
  | Heap.Runtime_error msg -> Some (Asr.Supervisor.Trap, msg)
  | _ -> None
