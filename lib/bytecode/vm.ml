module Value = Mj_runtime.Value
module Heap = Mj_runtime.Heap
module Cost = Mj_runtime.Cost
module Machine = Mj_runtime.Machine
module Threads = Mj_runtime.Threads

(* ------------------------------------------------------------------ *)
(* Pre-decoded code                                                    *)
(* ------------------------------------------------------------------ *)

(* One op per bytecode instruction, decoded once at load: operators
   specialised, field sites and static cells resolved, call sites
   carrying their own cache. The loop still dispatches and charges each
   op as the instruction it came from. *)
type op =
  | Const of Value.t
  | Load of int
  | Store of int
  | Get_field of Heap.field_site
  | Put_field of Heap.field_site
  | Get_cell of string * Value.t ref  (* "read C.f" for the thread trace *)
  | Put_cell of string * string * Value.t ref
  | Get_static of string * string  (* no cell at load *)
  | Put_static of string * string
  | Aload
  | Aload_u
  | Astore
  | Astore_u
  | Alen
  | New_object of ctor_site
  | New_array of Mj.Ast.ty
  | New_multi of Mj.Ast.ty * int
  | Iadd | Isub | Imul | Idiv | Imod | Iand | Ior | Ixor | Ishl | Ishr
  | Ilt | Igt | Ile | Ige | Ieq | Ine
  | Iop of Mj.Ast.binop  (* [And]/[Or]: fails as {!Machine.int_op} does *)
  | Dadd | Dsub | Dmul | Ddiv
  | Dlt | Dgt | Dle | Dge | Deq | Dne
  | Dop of Mj.Ast.binop  (* [Mod] and bit ops: {!Machine.double_op} fails *)
  | Veq
  | Vne
  | Sconcat
  | Ineg
  | Dneg
  | Bnot
  | I2d
  | D2i
  | Checkcast of Mj.Ast.ty
  | Jump of int
  | Jump_if_false of int
  | Invoke_virtual of virtual_site
  | Invoke_static of call_site
  | Invoke_special of call_site
  | Invoke_ctor of ctor_site
  | Ret
  | Ret_val
  | Pop
  | Dup
  | Dup2
  | Dup_x1
  | Dup_x2
  | Widen  (* [Coerce TDouble] *)
  | Keep  (* [Coerce] to any other type: dispatch only *)
  | Yield_point

(* A method as the VM runs it. Its frame is one array: locals in
   [0, stack0), then the operand stack, at most [size - stack0] deep. *)
and code = {
  mc : Instr.method_code;
  ops : op array;
  params : Mj.Ast.ty array;
  stack0 : int;
  size : int;
  mutable locs : Mj.Loc.t array;  (* per pc; built when lines are on *)
}

(* A statically bound call: the target, once resolved. *)
and call_site = {
  s_cls : string;
  s_mname : string;
  s_argc : int;
  mutable s_target : code Link.target option;
}

(* A virtual call: the receiver layout last seen and its target. *)
and virtual_site = {
  v_mname : string;
  v_argc : int;
  mutable v_seen : (Heap.layout * code Link.target) option;
}

and ctor_site = { k_cls : string; k_argc : int; mutable k_code : code option }

type t = {
  image : Compile.image;
  m : Machine.t;
  cost : Cost.t;
  heap : Heap.t;
  link : code Link.t;
}

let fail = Machine.fail

let machine t = t.m

let image t = t.image

let cycles t = Cost.cycles t.cost

let reset_cycles t = Cost.reset t.cost

let output t = Buffer.contents t.m.Machine.console

let clear_output t = Buffer.clear t.m.Machine.console

(* ---- load: the depth pass ------------------------------------------ *)

(* Operand-stack entries an instruction pops, and pushes. *)
let stack_effect : Instr.t -> int * int = function
  | Instr.Const _ | Instr.Load _ | Instr.Get_static _ -> (0, 1)
  | Instr.Jump _ | Instr.Ret | Instr.Yield_point -> (0, 0)
  | Instr.Store _ | Instr.Jump_if_false _ | Instr.Pop | Instr.Ret_val -> (1, 0)
  | Instr.Get_field _ | Instr.Put_static _ | Instr.Array_len
  | Instr.New_array _ | Instr.Ineg | Instr.Dneg | Instr.Bnot | Instr.I2d
  | Instr.D2i | Instr.Checkcast _ | Instr.Coerce _ ->
      (1, 1)
  | Instr.Put_field _ | Instr.Array_load | Instr.Aload_u | Instr.Iop _
  | Instr.Dop _ | Instr.Veq _ | Instr.Sconcat ->
      (2, 1)
  | Instr.Array_store | Instr.Astore_u -> (3, 1)
  | Instr.New_object (_, k) | Instr.New_multi (_, k) | Instr.Invoke_static (_, _, k)
    ->
      (k, 1)
  | Instr.Invoke_virtual (_, k) | Instr.Invoke_special (_, _, k) -> (k + 1, 1)
  | Instr.Invoke_ctor (_, k) -> (k + 1, 0)
  | Instr.Dup -> (1, 2)
  | Instr.Dup2 -> (2, 4)
  | Instr.Dup_x1 -> (2, 3)
  | Instr.Dup_x2 -> (3, 4)

(* The operand-stack depth before every reachable instruction, as a JVM
   verifier computes it: a method is rejected if an instruction would
   pop more than the stack holds, if two paths reach an instruction at
   different depths, if a local slot lies outside the frame, or if
   control leaves the code. Returns the deepest stack. *)
let max_depth (mc : Instr.method_code) =
  let code = mc.Instr.mc_code in
  let n = Array.length code in
  let where = Printf.sprintf "%s.%s" mc.Instr.mc_class mc.Instr.mc_name in
  let depth = Array.make n (-1) in
  let deepest = ref 0 in
  let work = ref [] in
  let reach pc d =
    if pc < 0 || pc > n then fail "vm: jump target %d out of range in %s" pc where
    else if pc = n then fail "vm: %s falls off its code" where
    else if depth.(pc) < 0 then begin
      depth.(pc) <- d;
      work := pc :: !work
    end
    else if depth.(pc) <> d then
      fail "vm: operand stack underflow: depths %d and %d meet at pc %d in %s"
        depth.(pc) d pc where
  in
  reach 0 0;
  while !work <> [] do
    let pc = List.hd !work in
    work := List.tl !work;
    let d = depth.(pc) in
    let pops, pushes = stack_effect code.(pc) in
    if d < pops then
      fail "vm: operand stack underflow at pc %d in %s" pc where;
    let d' = d - pops + pushes in
    deepest := max !deepest d';
    match code.(pc) with
    | Instr.Load s | Instr.Store s when s < 0 || s >= mc.Instr.mc_nlocals ->
        fail "vm: local slot %d out of range at pc %d in %s" s pc where
    | Instr.Jump target -> reach target d'
    | Instr.Jump_if_false target ->
        reach (pc + 1) d';
        reach target d'
    | Instr.Ret | Instr.Ret_val -> ()
    | _ -> reach (pc + 1) d'
  done;
  !deepest

(* ---- load: decoding ------------------------------------------------- *)

let decode m : Instr.t -> op = function
  | Instr.Const v -> Const v
  | Instr.Load n -> Load n
  | Instr.Store n -> Store n
  | Instr.Get_field f -> Get_field (Heap.field_site f)
  | Instr.Put_field f -> Put_field (Heap.field_site f)
  | Instr.Get_static (c, f) -> (
      match Machine.static_cell m c f with
      | Some r -> Get_cell (Printf.sprintf "read %s.%s" c f, r)
      | None -> Get_static (c, f))
  | Instr.Put_static (c, f) -> (
      match Machine.static_cell m c f with
      | Some r -> Put_cell (c, f, r)
      | None -> Put_static (c, f))
  | Instr.Array_load -> Aload
  | Instr.Aload_u -> Aload_u
  | Instr.Array_store -> Astore
  | Instr.Astore_u -> Astore_u
  | Instr.Array_len -> Alen
  | Instr.New_object (c, k) -> New_object { k_cls = c; k_argc = k; k_code = None }
  | Instr.New_array ty -> New_array ty
  | Instr.New_multi (ty, k) -> New_multi (ty, k)
  | Instr.Iop op -> (
      match op with
      | Add -> Iadd | Sub -> Isub | Mul -> Imul | Div -> Idiv | Mod -> Imod
      | Band -> Iand | Bor -> Ior | Bxor -> Ixor | Shl -> Ishl | Shr -> Ishr
      | Lt -> Ilt | Gt -> Igt | Le -> Ile | Ge -> Ige | Eq -> Ieq | Neq -> Ine
      | And | Or -> Iop op)
  | Instr.Dop op -> (
      match op with
      | Add -> Dadd | Sub -> Dsub | Mul -> Dmul | Div -> Ddiv
      | Lt -> Dlt | Gt -> Dgt | Le -> Dle | Ge -> Dge | Eq -> Deq | Neq -> Dne
      | Mod | Band | Bor | Bxor | Shl | Shr | And | Or -> Dop op)
  | Instr.Veq positive -> if positive then Veq else Vne
  | Instr.Sconcat -> Sconcat
  | Instr.Ineg -> Ineg
  | Instr.Dneg -> Dneg
  | Instr.Bnot -> Bnot
  | Instr.I2d -> I2d
  | Instr.D2i -> D2i
  | Instr.Checkcast ty -> Checkcast ty
  | Instr.Jump target -> Jump target
  | Instr.Jump_if_false target -> Jump_if_false target
  | Instr.Invoke_virtual (mname, k) ->
      Invoke_virtual { v_mname = mname; v_argc = k; v_seen = None }
  | Instr.Invoke_static (c, mname, k) ->
      Invoke_static { s_cls = c; s_mname = mname; s_argc = k; s_target = None }
  | Instr.Invoke_special (c, mname, k) ->
      Invoke_special { s_cls = c; s_mname = mname; s_argc = k; s_target = None }
  | Instr.Invoke_ctor (c, k) -> Invoke_ctor { k_cls = c; k_argc = k; k_code = None }
  | Instr.Ret -> Ret
  | Instr.Ret_val -> Ret_val
  | Instr.Pop -> Pop
  | Instr.Dup -> Dup
  | Instr.Dup2 -> Dup2
  | Instr.Dup_x1 -> Dup_x1
  | Instr.Dup_x2 -> Dup_x2
  | Instr.Coerce Mj.Ast.TDouble -> Widen
  | Instr.Coerce _ -> Keep
  | Instr.Yield_point -> Yield_point

let no_lines : Mj.Loc.t array = [||]

let load m (mc : Instr.method_code) =
  let deepest = max_depth mc in
  let params = Array.of_list mc.Instr.mc_params in
  (* room for a receiver and the parameters, whatever [mc_nlocals] says *)
  let stack0 = max mc.Instr.mc_nlocals (1 + Array.length params) in
  { mc; ops = Array.map (decode m) mc.Instr.mc_code; params; stack0;
    size = stack0 + deepest; locs = no_lines }

let lines c =
  if c.locs == no_lines then c.locs <- Instr.expand_lines c.mc;
  c.locs

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

(* The depth pass bounds every stack index and local slot by the frame,
   and every pc by the code, so the loop reads and writes unchecked. *)
let[@inline] get (fr : Value.t array) i = Array.unsafe_get fr i

let[@inline] set (fr : Value.t array) i v = Array.unsafe_set fr i v

let[@inline] int_at fr i =
  match get fr i with Value.Int n -> n | v -> Machine.as_int v

let[@inline] double_at fr i =
  match get fr i with
  | Value.Double f -> f
  | Value.Int n -> float_of_int n
  | v -> Machine.as_double v

let[@inline] bool_at fr i =
  match get fr i with Value.Bool b -> b | v -> Machine.as_bool v

let vtrue = Value.Bool true

let vfalse = Value.Bool false

let[@inline] of_bool b = if b then vtrue else vfalse

let wrap = Value.wrap32

(* [argc] arguments in [src] from [base], as a native takes them. *)
let rec arg_list src i stop =
  if i = stop then []
  else
    let v = get src i in
    v :: arg_list src (i + 1) stop

(* Run [c] on the [argc] values at [src.(base)..], after the receiver
   [recv] when [has_this]. Arity is checked inside the method bracket,
   where building the callee's frame would find it. *)
let rec call_code t c has_this recv src base argc =
  Machine.enter_frame t.m;
  Cost.enter_method_in t.cost c.mc.Instr.mc_class c.mc.Instr.mc_name;
  match run t c has_this recv src base argc with
  | v ->
      Cost.leave_method t.cost;
      Machine.leave_frame t.m;
      v
  | exception e ->
      Cost.leave_method t.cost;
      Machine.leave_frame t.m;
      raise e

and run t c has_this recv src base argc =
  let params = c.params in
  if argc <> Array.length params then
    fail "vm: arity mismatch calling %s.%s" c.mc.Instr.mc_class
      c.mc.Instr.mc_name;
  let fr = Array.make c.size Value.Null in
  let first = if has_this then 1 else 0 in
  if has_this then set fr 0 recv;
  for i = 0 to argc - 1 do
    set fr (first + i) (Machine.coerce params.(i) (get src (base + i)))
  done;
  let locs = if Cost.lines_on t.cost then lines c else no_lines in
  step t c locs fr 0 c.stack0

and apply t target has_this recv src base argc =
  match target with
  | Link.Code c -> call_code t c has_this recv src base argc
  | Link.Native f -> f recv (arg_list src base (base + argc))

and invoke_virtual t recv mname src base argc =
  let r = Heap.deref t.heap recv in
  apply t
    (Link.target t.link (Heap.object_class t.heap r) mname)
    true recv src base argc

and run_ctor t site recv src base =
  let c =
    match site.k_code with
    | Some c -> c
    | None ->
        let c = Link.ctor t.link site.k_cls site.k_argc in
        site.k_code <- Some c;
        c
  in
  ignore (call_code t c true recv src base site.k_argc)

and static_target t site =
  match site.s_target with
  | Some tg -> tg
  | None ->
      let tg = Link.target t.link site.s_cls site.s_mname in
      site.s_target <- Some tg;
      tg

(* One op per turn: the line position, the dispatch charge, then the
   op's own charges in the order its instruction makes them. [sp] is
   the first free stack slot. *)
and step t c locs fr pc sp =
  let cost = t.cost in
  if locs != no_lines then Cost.at_line cost (Array.unsafe_get locs pc);
  Cost.dispatch cost;
  match Array.unsafe_get c.ops pc with
  | Const v ->
      set fr sp v;
      step t c locs fr (pc + 1) (sp + 1)
  | Load n ->
      Cost.load_store cost;
      set fr sp (get fr n);
      step t c locs fr (pc + 1) (sp + 1)
  | Store n ->
      Cost.load_store cost;
      set fr n (get fr (sp - 1));
      step t c locs fr (pc + 1) (sp - 1)
  | Get_field site ->
      Cost.field cost;
      let r = Heap.deref t.heap (get fr (sp - 1)) in
      set fr (sp - 1) (Heap.get_field_at t.heap r site);
      step t c locs fr (pc + 1) sp
  | Put_field site ->
      Cost.field cost;
      let v = get fr (sp - 1) in
      let r = Heap.deref t.heap (get fr (sp - 2)) in
      Heap.set_field_at t.heap r site v;
      set fr (sp - 2) v;
      step t c locs fr (pc + 1) (sp - 1)
  | Get_cell (note, cell) ->
      Cost.field cost;
      if Threads.active () then Threads.note note;
      set fr sp !cell;
      step t c locs fr (pc + 1) (sp + 1)
  | Put_cell (cls, fname, cell) ->
      Cost.field cost;
      let v = get fr (sp - 1) in
      if Threads.active () then
        Threads.note
          (Printf.sprintf "write %s.%s = %s" cls fname (Value.to_display v));
      cell := v;
      step t c locs fr (pc + 1) sp
  | Get_static (cls, fname) ->
      Cost.field cost;
      if Threads.active () then
        Threads.note (Printf.sprintf "read %s.%s" cls fname);
      set fr sp (Machine.static_get t.m cls fname);
      step t c locs fr (pc + 1) (sp + 1)
  | Put_static (cls, fname) ->
      Cost.field cost;
      let v = get fr (sp - 1) in
      if Threads.active () then
        Threads.note
          (Printf.sprintf "write %s.%s = %s" cls fname (Value.to_display v));
      Machine.static_set t.m cls fname v;
      step t c locs fr (pc + 1) sp
  | Aload ->
      Cost.array cost;
      let i = int_at fr (sp - 1) in
      let r = Heap.deref t.heap (get fr (sp - 2)) in
      set fr (sp - 2) (Heap.array_get t.heap r i);
      step t c locs fr (pc + 1) (sp - 1)
  | Aload_u ->
      Cost.array_unchecked cost;
      let i = int_at fr (sp - 1) in
      let r = Heap.deref t.heap (get fr (sp - 2)) in
      set fr (sp - 2) (Heap.array_get_unchecked t.heap r i);
      step t c locs fr (pc + 1) (sp - 1)
  | Astore ->
      Cost.array cost;
      array_store t c locs fr pc sp ~checked:true
  | Astore_u ->
      Cost.array_unchecked cost;
      array_store t c locs fr pc sp ~checked:false
  | Alen ->
      Cost.field cost;
      let r = Heap.deref t.heap (get fr (sp - 1)) in
      set fr (sp - 1) (Value.Int (Heap.array_length t.heap r));
      step t c locs fr (pc + 1) sp
  | New_object site ->
      let base = sp - site.k_argc in
      let obj = Machine.alloc_instance t.m site.k_cls in
      run_ctor t site obj fr base;
      set fr base obj;
      step t c locs fr (pc + 1) (base + 1)
  | New_array elem ->
      set fr (sp - 1) (Machine.alloc_array t.m elem (int_at fr (sp - 1)));
      step t c locs fr (pc + 1) sp
  | New_multi (elem, ndims) ->
      let base = sp - ndims in
      let rec dims i =
        if i = sp then []
        else
          let d = int_at fr i in
          d :: dims (i + 1)
      in
      set fr base (Machine.alloc_multi t.m elem (dims base));
      step t c locs fr (pc + 1) (base + 1)
  | Iadd ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      int_result t c locs fr pc sp (wrap (x + y))
  | Isub ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      int_result t c locs fr pc sp (wrap (x - y))
  | Imul ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      int_result t c locs fr pc sp (wrap (x * y))
  | Idiv ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      if y = 0 then fail "division by zero";
      int_result t c locs fr pc sp (wrap (x / y))
  | Imod ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      if y = 0 then fail "division by zero";
      int_result t c locs fr pc sp (wrap (x mod y))
  | Iand ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      int_result t c locs fr pc sp (x land y)
  | Ior ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      int_result t c locs fr pc sp (x lor y)
  | Ixor ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      int_result t c locs fr pc sp (x lxor y)
  | Ishl ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      int_result t c locs fr pc sp (wrap (x lsl (y land 31)))
  | Ishr ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      int_result t c locs fr pc sp (x asr (y land 31))
  | Ilt ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      bool_result t c locs fr pc sp (x < y)
  | Igt ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      bool_result t c locs fr pc sp (x > y)
  | Ile ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      bool_result t c locs fr pc sp (x <= y)
  | Ige ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      bool_result t c locs fr pc sp (x >= y)
  | Ieq ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      bool_result t c locs fr pc sp (x = y)
  | Ine ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      bool_result t c locs fr pc sp (x <> y)
  | Iop op ->
      Cost.arith cost;
      let y = int_at fr (sp - 1) in
      let x = int_at fr (sp - 2) in
      set fr (sp - 2) (Machine.int_op op x y);
      step t c locs fr (pc + 1) (sp - 1)
  | Dadd ->
      Cost.arith cost;
      let y = double_at fr (sp - 1) in
      let x = double_at fr (sp - 2) in
      double_result t c locs fr pc sp (x +. y)
  | Dsub ->
      Cost.arith cost;
      let y = double_at fr (sp - 1) in
      let x = double_at fr (sp - 2) in
      double_result t c locs fr pc sp (x -. y)
  | Dmul ->
      Cost.arith cost;
      let y = double_at fr (sp - 1) in
      let x = double_at fr (sp - 2) in
      double_result t c locs fr pc sp (x *. y)
  | Ddiv ->
      Cost.arith cost;
      let y = double_at fr (sp - 1) in
      let x = double_at fr (sp - 2) in
      double_result t c locs fr pc sp (x /. y)
  | Dlt ->
      Cost.arith cost;
      let y = double_at fr (sp - 1) in
      let x = double_at fr (sp - 2) in
      bool_result t c locs fr pc sp (x < y)
  | Dgt ->
      Cost.arith cost;
      let y = double_at fr (sp - 1) in
      let x = double_at fr (sp - 2) in
      bool_result t c locs fr pc sp (x > y)
  | Dle ->
      Cost.arith cost;
      let y = double_at fr (sp - 1) in
      let x = double_at fr (sp - 2) in
      bool_result t c locs fr pc sp (x <= y)
  | Dge ->
      Cost.arith cost;
      let y = double_at fr (sp - 1) in
      let x = double_at fr (sp - 2) in
      bool_result t c locs fr pc sp (x >= y)
  | Deq ->
      Cost.arith cost;
      let y = double_at fr (sp - 1) in
      let x = double_at fr (sp - 2) in
      bool_result t c locs fr pc sp (Float.equal x y)
  | Dne ->
      Cost.arith cost;
      let y = double_at fr (sp - 1) in
      let x = double_at fr (sp - 2) in
      bool_result t c locs fr pc sp (not (Float.equal x y))
  | Dop op ->
      Cost.arith cost;
      let y = double_at fr (sp - 1) in
      let x = double_at fr (sp - 2) in
      set fr (sp - 2) (Machine.double_op op x y);
      step t c locs fr (pc + 1) (sp - 1)
  | Veq ->
      Cost.arith cost;
      bool_result t c locs fr pc sp
        (Value.equal (get fr (sp - 2)) (get fr (sp - 1)))
  | Vne ->
      Cost.arith cost;
      bool_result t c locs fr pc sp
        (not (Value.equal (get fr (sp - 2)) (get fr (sp - 1))))
  | Sconcat ->
      Cost.arith cost;
      let y = get fr (sp - 1) in
      let x = get fr (sp - 2) in
      set fr (sp - 2) (Value.Str (Value.to_display x ^ Value.to_display y));
      step t c locs fr (pc + 1) (sp - 1)
  | Ineg ->
      Cost.arith cost;
      set fr (sp - 1) (Value.Int (wrap (-int_at fr (sp - 1))));
      step t c locs fr (pc + 1) sp
  | Dneg ->
      Cost.arith cost;
      set fr (sp - 1) (Value.Double (-.double_at fr (sp - 1)));
      step t c locs fr (pc + 1) sp
  | Bnot ->
      Cost.arith cost;
      set fr (sp - 1) (of_bool (not (bool_at fr (sp - 1))));
      step t c locs fr (pc + 1) sp
  | I2d ->
      Cost.arith cost;
      set fr (sp - 1) (Value.Double (double_at fr (sp - 1)));
      step t c locs fr (pc + 1) sp
  | D2i ->
      Cost.arith cost;
      set fr (sp - 1) (Value.Int (Value.d2i (double_at fr (sp - 1))));
      step t c locs fr (pc + 1) sp
  | Checkcast ty ->
      set fr (sp - 1) (Machine.check_cast t.m ty (get fr (sp - 1)));
      step t c locs fr (pc + 1) sp
  | Jump target -> step t c locs fr target sp
  | Jump_if_false target ->
      if bool_at fr (sp - 1) then step t c locs fr (pc + 1) (sp - 1)
      else step t c locs fr target (sp - 1)
  | Invoke_virtual site ->
      Cost.call cost;
      let base = sp - site.v_argc in
      let recv = get fr (base - 1) in
      let r = Heap.deref t.heap recv in
      let target =
        match Heap.get t.heap r with
        | Heap.Object { layout; _ } -> (
            match site.v_seen with
            | Some (seen, tg) when seen == layout -> tg
            | _ ->
                let tg = Link.target t.link layout.Heap.l_cls site.v_mname in
                site.v_seen <- Some (layout, tg);
                tg)
        | Heap.Arr _ ->
            Link.target t.link (Heap.object_class t.heap r) site.v_mname
      in
      set fr (base - 1) (apply t target true recv fr base site.v_argc);
      step t c locs fr (pc + 1) base
  | Invoke_static site ->
      Cost.call cost;
      let base = sp - site.s_argc in
      set fr base
        (apply t (static_target t site) false Value.Null fr base site.s_argc);
      step t c locs fr (pc + 1) (base + 1)
  | Invoke_special site ->
      Cost.call cost;
      let base = sp - site.s_argc in
      let recv = get fr (base - 1) in
      set fr (base - 1)
        (apply t (static_target t site) true recv fr base site.s_argc);
      step t c locs fr (pc + 1) base
  | Invoke_ctor site ->
      Cost.call cost;
      let base = sp - site.k_argc in
      run_ctor t site (get fr (base - 1)) fr base;
      step t c locs fr (pc + 1) (base - 1)
  | Ret -> Value.Null
  | Ret_val -> Machine.coerce c.mc.Instr.mc_ret (get fr (sp - 1))
  | Pop -> step t c locs fr (pc + 1) (sp - 1)
  | Dup ->
      set fr sp (get fr (sp - 1));
      step t c locs fr (pc + 1) (sp + 1)
  | Dup2 ->
      set fr sp (get fr (sp - 2));
      set fr (sp + 1) (get fr (sp - 1));
      step t c locs fr (pc + 1) (sp + 2)
  | Dup_x1 ->
      (* [a; b] -> [b; a; b] *)
      let b = get fr (sp - 1) in
      set fr sp b;
      set fr (sp - 1) (get fr (sp - 2));
      set fr (sp - 2) b;
      step t c locs fr (pc + 1) (sp + 1)
  | Dup_x2 ->
      (* [a; b; c] -> [c; a; b; c] *)
      let v = get fr (sp - 1) in
      set fr sp v;
      set fr (sp - 1) (get fr (sp - 2));
      set fr (sp - 2) (get fr (sp - 3));
      set fr (sp - 3) v;
      step t c locs fr (pc + 1) (sp + 1)
  | Widen ->
      set fr (sp - 1) (Machine.coerce Mj.Ast.TDouble (get fr (sp - 1)));
      step t c locs fr (pc + 1) sp
  | Keep -> step t c locs fr (pc + 1) sp
  | Yield_point ->
      Threads.maybe_yield ();
      step t c locs fr (pc + 1) sp

(* The tails shared by binary operators: the result replaces the two
   operands. *)
and int_result t c locs fr pc sp n =
  set fr (sp - 2) (Value.Int n);
  step t c locs fr (pc + 1) (sp - 1)

and double_result t c locs fr pc sp x =
  set fr (sp - 2) (Value.Double x);
  step t c locs fr (pc + 1) (sp - 1)

and bool_result t c locs fr pc sp b =
  set fr (sp - 2) (of_bool b);
  step t c locs fr (pc + 1) (sp - 1)

and array_store t c locs fr pc sp ~checked =
  let v = get fr (sp - 1) in
  let i = int_at fr (sp - 2) in
  let r = Heap.deref t.heap (get fr (sp - 3)) in
  set fr (sp - 3) (Machine.array_store t.m r i v ~checked);
  step t c locs fr (pc + 1) (sp - 2)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let call t recv mname args =
  let src = Array.of_list args in
  invoke_virtual t recv mname src 0 (Array.length src)

let call_static t cls mname args =
  let src = Array.of_list args in
  apply t (Link.target t.link cls mname) false Value.Null src 0
    (Array.length src)

let new_instance t cls args =
  let obj = Machine.alloc_instance t.m cls in
  let src = Array.of_list args in
  let site =
    { k_cls = cls; k_argc = Array.length src; k_code = None }
  in
  run_ctor t site obj src 0;
  obj

let run_main t cls = ignore (call_static t cls "main" [])

let of_image ?tariff ?sink ?lines image =
  let m =
    match tariff with
    | Some tariff -> Machine.create ~tariff ?sink ?lines image.Compile.im_tab
    | None -> Machine.create ?sink ?lines image.Compile.im_tab
  in
  let t =
    { image; m; cost = m.Machine.cost; heap = m.Machine.heap;
      link = Link.create image m ~load:(load m) }
  in
  m.Machine.invoke_run <- (fun recv -> ignore (call t recv "run" []));
  ignore
    (call_code t (load m image.Compile.im_static_init) false Value.Null [||] 0 0);
  t

let create ?tariff ?sink ?lines ?elide checked =
  of_image ?tariff ?sink ?lines (Compile.compile ?elide checked)
