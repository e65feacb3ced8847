module Value = Mj_runtime.Value
module Heap = Mj_runtime.Heap
module Cost = Mj_runtime.Cost
module Machine = Mj_runtime.Machine
module Threads = Mj_runtime.Threads

(* A method as the VM runs it: its bytecode plus, per pc, the field
   site or static cell the instruction there names, linked on first
   load. Dispatch and charges stay per instruction. *)
type code = { mc : Instr.method_code; sites : site array }

and site = Plain | Field of Heap.field_site | Cell of Value.t ref

type t = {
  image : Compile.image;
  m : Machine.t;
  link : code Link.t;
}

let fail = Machine.fail

let machine t = t.m

let image t = t.image

let cycles t = Cost.cycles t.m.Machine.cost

let reset_cycles t = Cost.reset t.m.Machine.cost

let output t = Buffer.contents t.m.Machine.console

let clear_output t = Buffer.clear t.m.Machine.console

let as_int = Machine.as_int

let as_bool = Machine.as_bool

let as_double = Machine.as_double

(* A frame: locals array plus a growable operand stack. *)
type frame = {
  locals : Value.t array;
  mutable stack : Value.t array;
  mutable sp : int;
}

let push fr v =
  if fr.sp >= Array.length fr.stack then begin
    let bigger = Array.make (2 * Array.length fr.stack) Value.Null in
    Array.blit fr.stack 0 bigger 0 fr.sp;
    fr.stack <- bigger
  end;
  fr.stack.(fr.sp) <- v;
  fr.sp <- fr.sp + 1

let pop fr =
  if fr.sp = 0 then fail "vm: operand stack underflow";
  fr.sp <- fr.sp - 1;
  fr.stack.(fr.sp)

let pop_n fr n =
  let values = Array.make n Value.Null in
  for i = n - 1 downto 0 do
    values.(i) <- pop fr
  done;
  values

let load m (mc : Instr.method_code) =
  let site = function
    | Instr.Get_field f | Instr.Put_field f -> Field (Heap.field_site f)
    | Instr.Get_static (c, f) | Instr.Put_static (c, f) -> (
        match Machine.static_cell m c f with Some r -> Cell r | None -> Plain)
    | _ -> Plain
  in
  { mc; sites = Array.map site mc.Instr.mc_code }

let rec exec t ({ mc; _ } as c) ~this args =
  Machine.enter_frame t.m;
  Cost.enter_method_in t.m.Machine.cost mc.Instr.mc_class mc.Instr.mc_name;
  match run t c ~this args with
  | v ->
      Cost.leave_method t.m.Machine.cost;
      Machine.leave_frame t.m;
      v
  | exception e ->
      Cost.leave_method t.m.Machine.cost;
      Machine.leave_frame t.m;
      raise e

and run t { mc; sites } ~this args =
  let fr =
    { locals = Array.make (max 1 mc.Instr.mc_nlocals) Value.Null;
      stack = Array.make 32 Value.Null; sp = 0 }
  in
  let base =
    match this with
    | Some v ->
        if mc.Instr.mc_nlocals > 0 then fr.locals.(0) <- v;
        1
    | None -> 0
  in
  if Array.length args <> List.length mc.Instr.mc_params then
    fail "vm: arity mismatch calling %s.%s" mc.Instr.mc_class mc.Instr.mc_name;
  List.iteri
    (fun i ty -> fr.locals.(base + i) <- Machine.coerce ty args.(i))
    mc.Instr.mc_params;
  let code = mc.Instr.mc_code in
  let cost = t.m.Machine.cost in
  let heap = t.m.Machine.heap in
  (* Checked once per frame: the disabled path pays nothing per step. *)
  let lines_on = Cost.lines_on cost in
  let rec step pc =
    if lines_on then Cost.at_line cost (Instr.line_at mc pc);
    Cost.dispatch cost;
    match code.(pc) with
    | Instr.Const v ->
        push fr v;
        step (pc + 1)
    | Instr.Load n ->
        Cost.load_store cost;
        push fr fr.locals.(n);
        step (pc + 1)
    | Instr.Store n ->
        Cost.load_store cost;
        fr.locals.(n) <- pop fr;
        step (pc + 1)
    | Instr.Get_field fname ->
        Cost.field cost;
        let r = Heap.deref heap (pop fr) in
        push fr
          (match sites.(pc) with
          | Field site -> Heap.get_field_at heap r site
          | Plain | Cell _ -> Heap.get_field heap r fname);
        step (pc + 1)
    | Instr.Put_field fname ->
        Cost.field cost;
        let v = pop fr in
        let r = Heap.deref heap (pop fr) in
        (match sites.(pc) with
        | Field site -> Heap.set_field_at heap r site v
        | Plain | Cell _ -> Heap.set_field heap r fname v);
        push fr v;
        step (pc + 1)
    | Instr.Get_static (cls, fname) ->
        Cost.field cost;
        if Threads.active () then
          Threads.note (Printf.sprintf "read %s.%s" cls fname);
        push fr
          (match sites.(pc) with
          | Cell c -> !c
          | Plain | Field _ -> Machine.static_get t.m cls fname);
        step (pc + 1)
    | Instr.Put_static (cls, fname) ->
        Cost.field cost;
        let v = pop fr in
        if Threads.active () then
          Threads.note
            (Printf.sprintf "write %s.%s = %s" cls fname (Value.to_display v));
        (match sites.(pc) with
        | Cell c -> c := v
        | Plain | Field _ -> Machine.static_set t.m cls fname v);
        push fr v;
        step (pc + 1)
    | Instr.Array_load ->
        Cost.array cost;
        let i = as_int (pop fr) in
        let r = Heap.deref heap (pop fr) in
        push fr (Heap.array_get heap r i);
        step (pc + 1)
    | Instr.Aload_u ->
        Cost.array_unchecked cost;
        let i = as_int (pop fr) in
        let r = Heap.deref heap (pop fr) in
        push fr (Heap.array_get_unchecked heap r i);
        step (pc + 1)
    | (Instr.Array_store | Instr.Astore_u) as instr ->
        let checked = instr = Instr.Array_store in
        if checked then Cost.array cost else Cost.array_unchecked cost;
        let v = pop fr in
        let i = as_int (pop fr) in
        let r = Heap.deref heap (pop fr) in
        push fr (Machine.array_store t.m r i v ~checked);
        step (pc + 1)
    | Instr.Array_len ->
        Cost.field cost;
        let r = Heap.deref heap (pop fr) in
        push fr (Value.Int (Heap.array_length heap r));
        step (pc + 1)
    | Instr.New_object (cls, argc) ->
        let args = pop_n fr argc in
        let obj = Machine.alloc_instance t.m cls in
        run_ctor t cls obj args;
        push fr obj;
        step (pc + 1)
    | Instr.New_array elem ->
        let n = as_int (pop fr) in
        Cost.alloc cost ~words:n;
        push fr (Heap.alloc_array heap ~elem n);
        step (pc + 1)
    | Instr.New_multi (elem, ndims) ->
        let dims = Array.to_list (Array.map as_int (pop_n fr ndims)) in
        push fr (Machine.alloc_multi t.m elem dims);
        step (pc + 1)
    | Instr.Iop op ->
        Cost.arith cost;
        let y = as_int (pop fr) in
        let x = as_int (pop fr) in
        push fr (Machine.int_op op x y);
        step (pc + 1)
    | Instr.Dop op ->
        Cost.arith cost;
        let y = as_double (pop fr) in
        let x = as_double (pop fr) in
        push fr (Machine.double_op op x y);
        step (pc + 1)
    | Instr.Veq positive ->
        Cost.arith cost;
        let y = pop fr in
        let x = pop fr in
        let same = Value.equal x y in
        push fr (Value.Bool (if positive then same else not same));
        step (pc + 1)
    | Instr.Sconcat ->
        Cost.arith cost;
        let y = pop fr in
        let x = pop fr in
        push fr (Value.Str (Value.to_display x ^ Value.to_display y));
        step (pc + 1)
    | Instr.Ineg ->
        Cost.arith cost;
        push fr (Value.Int (Value.wrap32 (-as_int (pop fr))));
        step (pc + 1)
    | Instr.Dneg ->
        Cost.arith cost;
        push fr (Value.Double (-.as_double (pop fr)));
        step (pc + 1)
    | Instr.Bnot ->
        Cost.arith cost;
        push fr (Value.Bool (not (as_bool (pop fr))));
        step (pc + 1)
    | Instr.I2d ->
        Cost.arith cost;
        push fr (Value.Double (as_double (pop fr)));
        step (pc + 1)
    | Instr.D2i ->
        Cost.arith cost;
        push fr (Value.Int (Value.d2i (as_double (pop fr))));
        step (pc + 1)
    | Instr.Checkcast ty ->
        push fr (Machine.check_cast t.m ty (pop fr));
        step (pc + 1)
    | Instr.Jump target -> step target
    | Instr.Jump_if_false target ->
        if as_bool (pop fr) then step (pc + 1) else step target
    | Instr.Invoke_virtual (mname, argc) ->
        Cost.call cost;
        let args = pop_n fr argc in
        let recv = pop fr in
        push fr (invoke_virtual t recv mname args);
        step (pc + 1)
    | Instr.Invoke_static (cls, mname, argc) ->
        Cost.call cost;
        let args = pop_n fr argc in
        push fr (invoke t None cls mname args);
        step (pc + 1)
    | Instr.Invoke_special (cls, mname, argc) ->
        Cost.call cost;
        let args = pop_n fr argc in
        let recv = pop fr in
        push fr (invoke t (Some recv) cls mname args);
        step (pc + 1)
    | Instr.Invoke_ctor (cls, argc) ->
        Cost.call cost;
        let args = pop_n fr argc in
        let recv = pop fr in
        run_ctor t cls recv args;
        step (pc + 1)
    | Instr.Ret -> Value.Null
    | Instr.Ret_val -> Machine.coerce mc.Instr.mc_ret (pop fr)
    | Instr.Pop ->
        ignore (pop fr);
        step (pc + 1)
    | Instr.Dup ->
        let v = pop fr in
        push fr v;
        push fr v;
        step (pc + 1)
    | Instr.Dup2 ->
        let b = pop fr in
        let a = pop fr in
        push fr a;
        push fr b;
        push fr a;
        push fr b;
        step (pc + 1)
    | Instr.Dup_x1 ->
        let b = pop fr in
        let a = pop fr in
        push fr b;
        push fr a;
        push fr b;
        step (pc + 1)
    | Instr.Dup_x2 ->
        let c = pop fr in
        let b = pop fr in
        let a = pop fr in
        push fr c;
        push fr a;
        push fr b;
        push fr c;
        step (pc + 1)
    | Instr.Coerce ty ->
        push fr (Machine.coerce ty (pop fr));
        step (pc + 1)
    | Instr.Yield_point ->
        Threads.maybe_yield ();
        step (pc + 1)
  in
  step 0

and invoke_virtual t recv mname args =
  let r = Heap.deref t.m.Machine.heap recv in
  invoke t (Some recv) (Heap.object_class t.m.Machine.heap r) mname args

(* [this] is [None] for a static call. *)
and invoke t this cls mname args =
  match Link.target t.link cls mname with
  | Link.Code c -> exec t c ~this args
  | Link.Native f ->
      f (Option.value this ~default:Value.Null) (Array.to_list args)

and run_ctor t cls recv args =
  ignore
    (exec t (Link.ctor t.link cls (Array.length args)) ~this:(Some recv) args)

let call t recv mname args = invoke_virtual t recv mname (Array.of_list args)

let call_static t cls mname args = invoke t None cls mname (Array.of_list args)

let new_instance t cls args =
  let obj = Machine.alloc_instance t.m cls in
  run_ctor t cls obj (Array.of_list args);
  obj

let run_main t cls = ignore (call_static t cls "main" [])

let of_image ?tariff ?sink ?lines image =
  let m =
    match tariff with
    | Some tariff -> Machine.create ~tariff ?sink ?lines image.Compile.im_tab
    | None -> Machine.create ?sink ?lines image.Compile.im_tab
  in
  let t = { image; m; link = Link.create image m ~load:(load m) } in
  m.Machine.invoke_run <- (fun recv -> ignore (call t recv "run" []));
  ignore (exec t (load m image.Compile.im_static_init) ~this:None [||]);
  t

let create ?tariff ?sink ?lines ?elide checked =
  of_image ?tariff ?sink ?lines (Compile.compile ?elide checked)
