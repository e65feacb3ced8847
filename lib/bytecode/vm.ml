module Value = Mj_runtime.Value
module Heap = Mj_runtime.Heap
module Cost = Mj_runtime.Cost
module Machine = Mj_runtime.Machine
module Threads = Mj_runtime.Threads

type ty = Verify.ty = Int | Bool | Double | Boxed

(* ------------------------------------------------------------------ *)
(* Pre-decoded code                                                    *)
(* ------------------------------------------------------------------ *)

(* One op per bytecode instruction, decoded once at load: operators
   specialised to the lanes the verifier put their operands and result
   in, field sites and static cells resolved, call sites carrying their
   own cache. The loop still dispatches and charges each op as the
   instruction it came from.

   A frame ({!Frame}) is three lanes indexed alike — locals in
   [0, stack0), then the operand stack: ints and booleans (0/1) in an
   [int array], doubles in a [Float.Array.t], everything else in a
   [Value.t array]. Each slot at each pc lives in the lane of its
   verified type, so ops move unboxed values; a [ty] in an op names the
   lane of an operand or result the op does not fix by itself, and
   [Boxed] operands of typed operators are unboxed (and checked) where
   they are read. *)
type op =
  | Const_i of int
  | Const_d of float
  | Const_v of Value.t
  | Load_i of int
  | Load_d of int
  | Load_v of int
  | Store_i of int
  | Store_d of int
  | Store_v of int
  | Get_field of Heap.field_site
  | Put_field of Heap.field_site * ty
  | Get_cell of string * Value.t ref  (* "read C.f" for the thread trace *)
  | Put_cell of string * string * Value.t ref * ty
  | Get_static of string * string  (* no cell at load *)
  | Put_static of string * string * ty
  | Aload of ty  (* the index's lane *)
  | Aload_u of ty
  | Astore of ty * ty  (* index, value *)
  | Astore_u of ty * ty
  | Alen of ty  (* the result's *)
  | New_object of ctor_site
  | New_array of Mj.Ast.ty * ty
  | New_multi of Mj.Ast.ty * ty array
  (* int-lane operands and result *)
  | Iadd | Isub | Imul | Idiv | Imod | Iand | Ior | Ixor | Ishl | Ishr
  | Ilt | Igt | Ile | Ige | Ieq | Ine
  | Ibin of Mj.Ast.binop * ty * ty * ty  (* any other lanes; [And]/[Or] fail *)
  (* double-lane operands, result in its own lane *)
  | Dadd | Dsub | Dmul | Ddiv
  | Dlt | Dgt | Dle | Dge | Deq | Dne
  | Dbin of Mj.Ast.binop * ty * ty * ty
  | Veq of bool * ty * ty * ty
  | Sconcat of ty * ty
  | Ineg of ty * ty  (* operand, result *)
  | Dneg of ty * ty
  | Bnot of ty * ty
  | I2d of ty * ty
  | D2i of ty * ty
  | Checkcast of Mj.Ast.ty  (* on a boxed operand *)
  | Jump of int
  | Back_jump of int * int  (* target, the edge's first int-lane slot *)
  | Jump_if_false of ty * int
  | Back_if_false of ty * int * int
  | Invoke_virtual of virtual_site
  | Invoke_static of call_site
  | Invoke_special of call_site
  | Invoke_ctor of ctor_site
  | Ret
  | Ret_val of ty
  | Pop
  | Dup_i
  | Dup_d
  | Dup_v
  | Moves of (int * int * ty) array * int
      (* [Dup2]/[Dup_x1]/[Dup_x2]: copies (from, to) relative to the
         stack top, in order, then the change in depth *)
  | Widen of ty  (* [Coerce TDouble]; the result is boxed *)
  | Keep  (* [Coerce] to any other type, [Checkcast] of an unboxed value *)
  | Yield_point
  (* Runs of ops done as one, taken only while nothing observes the
     meter (see [fuse]); the op is the run's int operator. *)
  | Inc_i of int * int  (* [x++], [x += k] as statements: six ops *)
  | Op_lc of op * int * int  (* [Load_i a; Const_i k; op] *)
  | Br_lc of op * int * int * int  (* [Load_i a; Const_i k; compare; Jump_if_false t] *)

(* A method as the VM runs it. *)
and code = {
  mc : Instr.method_code;
  ops : op array;
  fused : op array;  (* [ops] with runs fused, for unobserved execution *)
  fast : int array;  (* per pc: the dispatch and fixed charges of [fused]'s op *)
  params : Mj.Ast.ty array;
  entry : ty array;  (* the lane of each local at pc 0 *)
  stack0 : int;
  frames : Frame.pool;
  mutable locs : Mj.Loc.t array;  (* per pc; built when lines are on *)
}

(* A statically bound call: the target, once resolved; [tys] are the
   lanes of the arguments. *)
and call_site = {
  s_cls : string;
  s_mname : string;
  s_tys : ty array;
  mutable s_target : code Link.target option;
}

(* A virtual call: the receiver layout last seen and its target. *)
and virtual_site = {
  v_mname : string;
  v_tys : ty array;
  mutable v_seen : (Heap.layout * code Link.target) option;
}

and ctor_site = { k_cls : string; k_tys : ty array; mutable k_code : code option }

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

let output t = Buffer.contents t.m.Machine.console

(* ---- load: decoding ------------------------------------------------- *)

let fast_int : Mj.Ast.binop -> op option = function
  | Add -> Some Iadd | Sub -> Some Isub | Mul -> Some Imul | Div -> Some Idiv
  | Mod -> Some Imod | Band -> Some Iand | Bor -> Some Ior | Bxor -> Some Ixor
  | Shl -> Some Ishl | Shr -> Some Ishr | Lt -> Some Ilt | Gt -> Some Igt
  | Le -> Some Ile | Ge -> Some Ige | Eq -> Some Ieq | Neq -> Some Ine
  | And | Or -> None

let fast_double : Mj.Ast.binop -> op option = function
  | Add -> Some Dadd | Sub -> Some Dsub | Mul -> Some Dmul | Div -> Some Ddiv
  | Lt -> Some Dlt | Gt -> Some Dgt | Le -> Some Dle | Ge -> Some Dge
  | Eq -> Some Deq | Neq -> Some Dne
  | Mod | Band | Bor | Bxor | Shl | Shr | And | Or -> None

let decode m v size pc (instr : Instr.t) : op =
  let top k = Verify.top v pc k in
  let args k = Array.init k (fun i -> top (k - 1 - i)) in
  let res () = Verify.result v pc in
  let unboxed = function Boxed -> false | Int | Bool | Double -> true in
  let jump target =
    match Verify.back_edge v pc with
    | -1 -> Jump target
    | e -> Back_jump (target, Frame.edge_slot ~ints:size e)
  in
  match instr with
  | Instr.Const c -> (
      match (res (), c) with
      | (Int | Bool), Value.Int n -> Const_i n
      | (Int | Bool), Value.Bool b -> Const_i (Bool.to_int b)
      | Double, Value.Double x -> Const_d x
      | _ -> Const_v c)
  | Instr.Load n -> (
      match Verify.slot v pc n with
      | Int | Bool -> Load_i n
      | Double -> Load_d n
      | Boxed -> Load_v n)
  | Instr.Store n -> (
      match top 0 with
      | Int | Bool -> Store_i n
      | Double -> Store_d n
      | Boxed -> Store_v n)
  | Instr.Get_field f -> Get_field (Heap.field_site f)
  | Instr.Put_field f -> Put_field (Heap.field_site f, top 0)
  | Instr.Get_static (c, f) -> (
      match Machine.static_cell m c f with
      | Some r -> Get_cell (Printf.sprintf "read %s.%s" c f, r)
      | None -> Get_static (c, f))
  | Instr.Put_static (c, f) -> (
      match Machine.static_cell m c f with
      | Some r -> Put_cell (c, f, r, top 0)
      | None -> Put_static (c, f, top 0))
  | Instr.Array_load -> Aload (top 0)
  | Instr.Aload_u -> Aload_u (top 0)
  | Instr.Array_store -> Astore (top 1, top 0)
  | Instr.Astore_u -> Astore_u (top 1, top 0)
  | Instr.Array_len -> Alen (res ())
  | Instr.New_object (c, k) -> New_object { k_cls = c; k_tys = args k; k_code = None }
  | Instr.New_array ty -> New_array (ty, top 0)
  | Instr.New_multi (ty, k) -> New_multi (ty, args k)
  | Instr.Iop op -> (
      match (top 1, top 0, fast_int op) with
      | Int, Int, Some fast when unboxed (res ()) -> fast
      | x, y, _ -> Ibin (op, x, y, res ()))
  | Instr.Dop op -> (
      match (top 1, top 0, fast_double op) with
      | Double, Double, Some fast when unboxed (res ()) -> fast
      | x, y, _ -> Dbin (op, x, y, res ()))
  | Instr.Veq positive -> Veq (positive, top 1, top 0, res ())
  | Instr.Sconcat -> Sconcat (top 1, top 0)
  | Instr.Ineg -> Ineg (top 0, res ())
  | Instr.Dneg -> Dneg (top 0, res ())
  | Instr.Bnot -> Bnot (top 0, res ())
  | Instr.I2d -> I2d (top 0, res ())
  | Instr.D2i -> D2i (top 0, res ())
  | Instr.Checkcast ty -> if top 0 = Boxed then Checkcast ty else Keep
  | Instr.Jump target -> jump target
  | Instr.Jump_if_false target -> (
      match Verify.back_edge v pc with
      | -1 -> Jump_if_false (top 0, target)
      | e -> Back_if_false (top 0, target, Frame.edge_slot ~ints:size e))
  | Instr.Invoke_virtual (mname, k) ->
      Invoke_virtual { v_mname = mname; v_tys = args k; v_seen = None }
  | Instr.Invoke_static (c, mname, k) ->
      Invoke_static { s_cls = c; s_mname = mname; s_tys = args k; s_target = None }
  | Instr.Invoke_special (c, mname, k) ->
      Invoke_special { s_cls = c; s_mname = mname; s_tys = args k; s_target = None }
  | Instr.Invoke_ctor (c, k) -> Invoke_ctor { k_cls = c; k_tys = args k; k_code = None }
  | Instr.Ret -> Ret
  | Instr.Ret_val -> Ret_val (top 0)
  | Instr.Pop -> Pop
  | Instr.Dup -> (
      match top 0 with Int | Bool -> Dup_i | Double -> Dup_d | Boxed -> Dup_v)
  | Instr.Dup2 ->
      let a = top 1 and b = top 0 in
      Moves ([| (-2, 0, a); (-1, 1, b) |], 2)
  | Instr.Dup_x1 ->
      (* [a; b] -> [b; a; b] *)
      let a = top 1 and b = top 0 in
      Moves ([| (-1, 0, b); (-2, -1, a); (0, -2, b) |], 1)
  | Instr.Dup_x2 ->
      (* [a; b; c] -> [c; a; b; c] *)
      let a = top 2 and b = top 1 and c = top 0 in
      Moves ([| (-1, 0, c); (-2, -1, b); (-3, -2, a); (0, -3, c) |], 1)
  | Instr.Coerce Mj.Ast.TDouble -> Widen (top 0)
  | Instr.Coerce _ -> Keep
  | Instr.Yield_point -> Yield_point

(* What an op charges besides dispatch before anything it does can fail
   (allocation, natives and GC pauses charge where they happen). *)
let fixed_charge (tr : Cost.tariff) = function
  | Load_i _ | Load_d _ | Load_v _ | Store_i _ | Store_d _ | Store_v _ ->
      tr.Cost.load_store
  | Get_field _ | Put_field _ | Get_cell _ | Put_cell _ | Get_static _
  | Put_static _ | Alen _ ->
      tr.Cost.field
  | Aload _ | Astore _ -> tr.Cost.array
  | Aload_u _ | Astore_u _ -> tr.Cost.array_unchecked
  | Iadd | Isub | Imul | Idiv | Imod | Iand | Ior | Ixor | Ishl | Ishr | Ilt
  | Igt | Ile | Ige | Ieq | Ine | Ibin _ | Dadd | Dsub | Dmul | Ddiv | Dlt
  | Dgt | Dle | Dge | Deq | Dne | Dbin _ | Veq _ | Sconcat _ | Ineg _
  | Dneg _ | Bnot _ | I2d _ | D2i _ ->
      tr.Cost.arith
  | Invoke_virtual _ | Invoke_static _ | Invoke_special _ | Invoke_ctor _ ->
      tr.Cost.call
  | Const_i _ | Const_d _ | Const_v _ | New_object _ | New_array _
  | New_multi _ | Checkcast _ | Jump _ | Back_jump _ | Jump_if_false _
  | Back_if_false _ | Ret | Ret_val _ | Pop | Dup_i | Dup_d | Dup_v | Moves _
  | Widen _ | Keep | Yield_point | Inc_i _ | Op_lc _ | Br_lc _ ->
      0

let int_op = function
  | Iadd | Isub | Imul | Idiv | Imod | Iand | Ior | Ixor | Ishl | Ishr | Ilt
  | Igt | Ile | Ige | Ieq | Ine ->
      true
  | _ -> false

let compare_op = function Ilt | Igt | Ile | Ige | Ieq | Ine -> true | _ -> false

(* Superinstructions: a run of ops that cannot transfer control, and
   can fail only in its last op after that op's charge, is done by one
   op at the run's first pc, with the run's charges summed in [fast].
   The ops after the first keep their own entries, so a jump into the
   run still finds them. Returns the fused ops and each one's length. *)
let fuse ops =
  let n = Array.length ops in
  let at i = if i < n then ops.(i) else Keep in
  let fused = Array.copy ops and len = Array.make n 1 in
  for pc = 0 to n - 1 do
    let run op k =
      fused.(pc) <- op;
      len.(pc) <- k
    in
    let stores_back x =
      match (at (pc + 4), at (pc + 5)) with
      | Store_i y, Pop -> y = x
      | _ -> false
    in
    match (at pc, at (pc + 1), at (pc + 2), at (pc + 3)) with
    | Load_i x, Dup_i, Const_i k, Iadd when stores_back x ->
        run (Inc_i (x, k)) 6
    | Load_i x, Const_i k, Iadd, Dup_i when stores_back x ->
        run (Inc_i (x, k)) 6
    | Load_i a, Const_i k, o, Jump_if_false ((Int | Bool), t) when compare_op o ->
        run (Br_lc (o, a, k, t)) 4
    | Load_i a, Const_i k, o, _ when int_op o -> run (Op_lc (o, a, k)) 3
    | _ -> ()
  done;
  (fused, len)

(* A fused run's int operator on unboxed operands; comparisons give 0/1. *)
let int_apply op x y =
  match op with
  | Iadd -> Value.wrap32 (x + y)
  | Isub -> Value.wrap32 (x - y)
  | Imul -> Value.wrap32 (x * y)
  | Idiv -> if y = 0 then fail "division by zero" else Value.wrap32 (x / y)
  | Imod -> if y = 0 then fail "division by zero" else Value.wrap32 (x mod y)
  | Iand -> x land y
  | Ior -> x lor y
  | Ixor -> x lxor y
  | Ishl -> Value.wrap32 (x lsl (y land 31))
  | Ishr -> x asr (y land 31)
  | Ilt -> Bool.to_int (x < y)
  | Igt -> Bool.to_int (x > y)
  | Ile -> Bool.to_int (x <= y)
  | Ige -> Bool.to_int (x >= y)
  | Ieq -> Bool.to_int (x = y)
  | Ine -> Bool.to_int (x <> y)
  | _ -> assert false

let no_lines : Mj.Loc.t array = [||]

let load m ~this (mc : Instr.method_code) =
  let v = Verify.verify ~this mc in
  let stack0 = Verify.frame_locals v in
  let size = stack0 + Verify.max_stack v in
  let ops =
    Array.mapi
      (fun pc instr ->
        if Verify.depth v pc < 0 then Keep else decode m v size pc instr)
      mc.Instr.mc_code
  in
  let tr = Cost.tariff m.Machine.cost in
  let charge op = tr.Cost.dispatch + fixed_charge tr op in
  let fused, len = fuse ops in
  { mc;
    ops;
    fused;
    fast =
      Array.init (Array.length ops) (fun pc ->
          let sum = ref 0 in
          for i = pc to pc + len.(pc) - 1 do
            sum := !sum + charge ops.(i)
          done;
          !sum);
    params = Array.of_list mc.Instr.mc_params;
    entry = Array.init stack0 (fun i -> Verify.slot v 0 i);
    stack0;
    frames =
      Frame.pool ~ints:size ~doubles:size ~values:size
        ~edges:(Verify.back_edges v);
    locs = no_lines }

let lines c =
  if c.locs == no_lines then c.locs <- Instr.expand_lines c.mc;
  c.locs

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

(* The verifier bounds every stack index and local slot by the frame,
   every pc by the code, and puts every operand in the lane its op
   reads, so the loop reads and writes unchecked. *)
let[@inline] geti (ir : int array) i = Array.unsafe_get ir i

let[@inline] seti (ir : int array) i (n : int) = Array.unsafe_set ir i n

let[@inline] getd dr i = Float.Array.unsafe_get dr i

let[@inline] setd dr i x = Float.Array.unsafe_set dr i x

let[@inline] getv (vr : Value.t array) i = Array.unsafe_get vr i

let[@inline] setv (vr : Value.t array) i (v : Value.t) = Array.unsafe_set vr i v

let vtrue = Value.Bool true

let vfalse = Value.Bool false

let[@inline] of_bool b = if b then vtrue else vfalse

(* Typed reads of operands, typed writes of results: a [Boxed] operand is
   unboxed and checked here, a [Boxed] result is boxed here. *)
let[@inline] int_in ty ir vr i =
  match ty with Boxed -> Machine.as_int (getv vr i) | _ -> geti ir i

let[@inline] double_in ty dr vr i =
  match ty with Boxed -> Machine.as_double (getv vr i) | _ -> getd dr i

let[@inline] bool_in ty ir vr i =
  match ty with Boxed -> Machine.as_bool (getv vr i) | _ -> geti ir i <> 0

let[@inline] int_out ty ir vr i n =
  match ty with Boxed -> setv vr i (Value.Int n) | _ -> seti ir i n

let[@inline] double_out ty dr vr i x =
  match ty with Boxed -> setv vr i (Value.Double x) | _ -> setd dr i x

let[@inline] bool_out ty ir vr i b =
  match ty with Boxed -> setv vr i (of_bool b) | _ -> seti ir i (Bool.to_int b)

(* The slot as a value: where a lane meets a field, an array element, a
   native or a caller. *)
let box ty ir dr vr i =
  match ty with
  | Int -> Value.Int (geti ir i)
  | Bool -> of_bool (geti ir i <> 0)
  | Double -> Value.Double (getd dr i)
  | Boxed -> getv vr i

(* A value into a slot of lane [ty], checked as a typed operator checks
   a boxed operand. *)
let unbox ty ir dr vr i v =
  match ty with
  | Int -> seti ir i (Machine.as_int v)
  | Bool -> seti ir i (Bool.to_int (Machine.as_bool v))
  | Double -> setd dr i (Machine.as_double v)
  | Boxed -> setv vr i v

let[@inline] move ty ir dr vr src dst =
  match ty with
  | Int | Bool -> seti ir dst (geti ir src)
  | Double -> setd dr dst (getd dr src)
  | Boxed -> setv vr dst (getv vr src)

let no_ints : int array = [||]

let no_doubles = Float.Array.create 0

let no_values : Value.t array = [||]

(* [argc] arguments in lanes [tys] from [base], as a native takes them. *)
let rec arg_list tys ir dr vr base i =
  if i = Array.length tys then []
  else
    let v = box tys.(i) ir dr vr (base + i) in
    v :: arg_list tys ir dr vr base (i + 1)

(* Run [c] on the arguments at [base..] in the caller's lanes, of types
   [tys], after the receiver [recv] when [has_this]. Arity is checked
   inside the method bracket, where building the callee's frame would
   find it; so is each argument whose lane differs from its slot's. The
   frame goes back to the pool however the activation ends. *)
let rec call_code t c has_this recv ir dr vr base tys =
  Machine.enter_frame t.m;
  Cost.enter_method_in t.cost c.mc.Instr.mc_class c.mc.Instr.mc_name;
  let fr = Frame.acquire c.frames in
  match run t c fr has_this recv ir dr vr base tys with
  | v ->
      Cost.leave_method t.cost;
      Machine.leave_frame t.m;
      Frame.release c.frames fr;
      v
  | exception e ->
      Cost.leave_method t.cost;
      Machine.leave_frame t.m;
      Frame.release c.frames fr;
      raise e

and run t c fr has_this recv ir dr vr base tys =
  let params = c.params in
  let argc = Array.length tys in
  if argc <> Array.length params then
    fail "vm: arity mismatch calling %s.%s" c.mc.Instr.mc_class
      c.mc.Instr.mc_name;
  let ir' = fr.Frame.i and dr' = fr.Frame.d and vr' = fr.Frame.v in
  let first = if has_this then 1 else 0 in
  if has_this then unbox c.entry.(0) ir' dr' vr' 0 recv;
  for i = 0 to argc - 1 do
    let j = first + i and src = base + i in
    match (tys.(i), c.entry.(j)) with
    | (Int, Int) | (Bool, Bool) -> seti ir' j (geti ir src)
    | Double, Double -> setd dr' j (getd dr src)
    | Int, Double when params.(i) = Mj.Ast.TDouble ->
        setd dr' j (float_of_int (geti ir src))
    | s, r -> unbox r ir' dr' vr' j (Machine.coerce params.(i) (box s ir dr vr src))
  done;
  let locs = if Cost.lines_on t.cost then lines c else no_lines in
  step t c locs ir' dr' vr' 0 c.stack0

and apply t target has_this recv ir dr vr base tys =
  match target with
  | Link.Code c -> call_code t c has_this recv ir dr vr base tys
  | Link.Native f -> f recv (arg_list tys ir dr vr base 0)

and invoke_virtual t recv mname vr tys =
  let r = Heap.deref t.heap recv in
  apply t
    (Link.target t.link (Heap.object_class t.heap r) mname)
    true recv no_ints no_doubles vr 0 tys

and run_ctor t site recv ir dr vr base =
  let c =
    match site.k_code with
    | Some c -> c
    | None ->
        let c = Link.ctor t.link site.k_cls (Array.length site.k_tys) in
        site.k_code <- Some c;
        c
  in
  ignore (call_code t c true recv ir dr vr base site.k_tys)

and static_target t site =
  match site.s_target with
  | Some tg -> tg
  | None ->
      let tg = Link.target t.link site.s_cls site.s_mname in
      site.s_target <- Some tg;
      tg

(* One op per turn: the line position, the dispatch charge, then the
   op's own charges in the order its instruction makes them. When
   nothing observes the meter, the dispatch and the op's fixed charge
   are one addition ([fast]); every fixed charge comes before anything
   the op can fail on, so the meter reads the same at every exit. [sp]
   is the first free stack slot. *)
and step t c locs ir dr vr pc sp =
  let cost = t.cost in
  let seen = Cost.observed cost in
  let op =
    if seen then begin
      if locs != no_lines then Cost.at_line cost (Array.unsafe_get locs pc);
      Cost.dispatch cost;
      Array.unsafe_get c.ops pc
    end
    else begin
      Cost.advance cost (Array.unsafe_get c.fast pc);
      Array.unsafe_get c.fused pc
    end
  in
  match op with
  | Const_i n ->
      seti ir sp n;
      step t c locs ir dr vr (pc + 1) (sp + 1)
  | Const_d x ->
      setd dr sp x;
      step t c locs ir dr vr (pc + 1) (sp + 1)
  | Const_v v ->
      setv vr sp v;
      step t c locs ir dr vr (pc + 1) (sp + 1)
  | Load_i n ->
      if seen then Cost.load_store cost;
      seti ir sp (geti ir n);
      step t c locs ir dr vr (pc + 1) (sp + 1)
  | Load_d n ->
      if seen then Cost.load_store cost;
      setd dr sp (getd dr n);
      step t c locs ir dr vr (pc + 1) (sp + 1)
  | Load_v n ->
      if seen then Cost.load_store cost;
      setv vr sp (getv vr n);
      step t c locs ir dr vr (pc + 1) (sp + 1)
  | Store_i n ->
      if seen then Cost.load_store cost;
      seti ir n (geti ir (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Store_d n ->
      if seen then Cost.load_store cost;
      setd dr n (getd dr (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Store_v n ->
      if seen then Cost.load_store cost;
      setv vr n (getv vr (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Get_field site ->
      if seen then Cost.field cost;
      let r = Heap.deref t.heap (getv vr (sp - 1)) in
      setv vr (sp - 1) (Heap.get_field_at t.heap r site);
      step t c locs ir dr vr (pc + 1) sp
  | Put_field (site, ty) ->
      if seen then Cost.field cost;
      let v = box ty ir dr vr (sp - 1) in
      let r = Heap.deref t.heap (getv vr (sp - 2)) in
      Heap.set_field_at t.heap r site v;
      setv vr (sp - 2) v;
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Get_cell (note, cell) ->
      if seen then Cost.field cost;
      if Threads.active () then Threads.note note;
      setv vr sp !cell;
      step t c locs ir dr vr (pc + 1) (sp + 1)
  | Put_cell (cls, fname, cell, ty) ->
      if seen then Cost.field cost;
      let v = box ty ir dr vr (sp - 1) in
      if Threads.active () then
        Threads.note
          (Printf.sprintf "write %s.%s = %s" cls fname (Value.to_display v));
      cell := v;
      setv vr (sp - 1) v;
      step t c locs ir dr vr (pc + 1) sp
  | Get_static (cls, fname) ->
      if seen then Cost.field cost;
      if Threads.active () then
        Threads.note (Printf.sprintf "read %s.%s" cls fname);
      setv vr sp (Machine.static_get t.m cls fname);
      step t c locs ir dr vr (pc + 1) (sp + 1)
  | Put_static (cls, fname, ty) ->
      if seen then Cost.field cost;
      let v = box ty ir dr vr (sp - 1) in
      if Threads.active () then
        Threads.note
          (Printf.sprintf "write %s.%s = %s" cls fname (Value.to_display v));
      Machine.static_set t.m cls fname v;
      setv vr (sp - 1) v;
      step t c locs ir dr vr (pc + 1) sp
  | Aload ty ->
      if seen then Cost.array cost;
      let i = int_in ty ir vr (sp - 1) in
      let r = Heap.deref t.heap (getv vr (sp - 2)) in
      setv vr (sp - 2) (Heap.array_get t.heap r i);
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Aload_u ty ->
      if seen then Cost.array_unchecked cost;
      let i = int_in ty ir vr (sp - 1) in
      let r = Heap.deref t.heap (getv vr (sp - 2)) in
      setv vr (sp - 2) (Heap.array_get_unchecked t.heap r i);
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Astore (ity, vty) ->
      if seen then Cost.array cost;
      array_store t c locs ir dr vr pc sp ity vty ~checked:true
  | Astore_u (ity, vty) ->
      if seen then Cost.array_unchecked cost;
      array_store t c locs ir dr vr pc sp ity vty ~checked:false
  | Alen ty ->
      if seen then Cost.field cost;
      let r = Heap.deref t.heap (getv vr (sp - 1)) in
      int_out ty ir vr (sp - 1) (Heap.array_length t.heap r);
      step t c locs ir dr vr (pc + 1) sp
  | New_object site ->
      let base = sp - Array.length site.k_tys in
      let obj = Machine.alloc_instance t.m site.k_cls in
      run_ctor t site obj ir dr vr base;
      setv vr base obj;
      step t c locs ir dr vr (pc + 1) (base + 1)
  | New_array (elem, ty) ->
      setv vr (sp - 1) (Machine.alloc_array t.m elem (int_in ty ir vr (sp - 1)));
      step t c locs ir dr vr (pc + 1) sp
  | New_multi (elem, tys) ->
      let base = sp - Array.length tys in
      let rec dims i =
        if i = sp then []
        else
          let d = int_in tys.(i - base) ir vr i in
          d :: dims (i + 1)
      in
      setv vr base (Machine.alloc_multi t.m elem (dims base));
      step t c locs ir dr vr (pc + 1) (base + 1)
  | Iadd ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Value.wrap32 (geti ir (sp - 2) + geti ir (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Isub ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Value.wrap32 (geti ir (sp - 2) - geti ir (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Imul ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Value.wrap32 (geti ir (sp - 2) * geti ir (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Idiv ->
      if seen then Cost.arith cost;
      let y = geti ir (sp - 1) in
      if y = 0 then fail "division by zero";
      seti ir (sp - 2) (Value.wrap32 (geti ir (sp - 2) / y));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Imod ->
      if seen then Cost.arith cost;
      let y = geti ir (sp - 1) in
      if y = 0 then fail "division by zero";
      seti ir (sp - 2) (Value.wrap32 (geti ir (sp - 2) mod y));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Iand ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (geti ir (sp - 2) land geti ir (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ior ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (geti ir (sp - 2) lor geti ir (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ixor ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (geti ir (sp - 2) lxor geti ir (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ishl ->
      if seen then Cost.arith cost;
      seti ir (sp - 2)
        (Value.wrap32 (geti ir (sp - 2) lsl (geti ir (sp - 1) land 31)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ishr ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (geti ir (sp - 2) asr (geti ir (sp - 1) land 31));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ilt ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Bool.to_int (geti ir (sp - 2) < geti ir (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Igt ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Bool.to_int (geti ir (sp - 2) > geti ir (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ile ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Bool.to_int (geti ir (sp - 2) <= geti ir (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ige ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Bool.to_int (geti ir (sp - 2) >= geti ir (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ieq ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Bool.to_int (geti ir (sp - 2) = geti ir (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ine ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Bool.to_int (geti ir (sp - 2) <> geti ir (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ibin (op, tx, ty, tr) ->
      if seen then Cost.arith cost;
      let y = int_in ty ir vr (sp - 1) in
      let x = int_in tx ir vr (sp - 2) in
      if Machine.is_compare op then
        bool_out tr ir vr (sp - 2) (Machine.int_compare op x y)
      else int_out tr ir vr (sp - 2) (Machine.int_arith op x y);
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Dadd ->
      if seen then Cost.arith cost;
      setd dr (sp - 2) (getd dr (sp - 2) +. getd dr (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Dsub ->
      if seen then Cost.arith cost;
      setd dr (sp - 2) (getd dr (sp - 2) -. getd dr (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Dmul ->
      if seen then Cost.arith cost;
      setd dr (sp - 2) (getd dr (sp - 2) *. getd dr (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ddiv ->
      if seen then Cost.arith cost;
      setd dr (sp - 2) (getd dr (sp - 2) /. getd dr (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Dlt ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Bool.to_int (getd dr (sp - 2) < getd dr (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Dgt ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Bool.to_int (getd dr (sp - 2) > getd dr (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Dle ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Bool.to_int (getd dr (sp - 2) <= getd dr (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Dge ->
      if seen then Cost.arith cost;
      seti ir (sp - 2) (Bool.to_int (getd dr (sp - 2) >= getd dr (sp - 1)));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Deq ->
      if seen then Cost.arith cost;
      seti ir (sp - 2)
        (Bool.to_int (Float.equal (getd dr (sp - 2)) (getd dr (sp - 1))));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Dne ->
      if seen then Cost.arith cost;
      seti ir (sp - 2)
        (Bool.to_int (not (Float.equal (getd dr (sp - 2)) (getd dr (sp - 1)))));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Dbin (op, tx, ty, tr) ->
      if seen then Cost.arith cost;
      let y = double_in ty dr vr (sp - 1) in
      let x = double_in tx dr vr (sp - 2) in
      (* operators in line: a float passed to a function is boxed *)
      (match op with
      | Add -> double_out tr dr vr (sp - 2) (x +. y)
      | Sub -> double_out tr dr vr (sp - 2) (x -. y)
      | Mul -> double_out tr dr vr (sp - 2) (x *. y)
      | Div -> double_out tr dr vr (sp - 2) (x /. y)
      | Lt -> bool_out tr ir vr (sp - 2) (x < y)
      | Gt -> bool_out tr ir vr (sp - 2) (x > y)
      | Le -> bool_out tr ir vr (sp - 2) (x <= y)
      | Ge -> bool_out tr ir vr (sp - 2) (x >= y)
      | Eq -> bool_out tr ir vr (sp - 2) (Float.equal x y)
      | Neq -> bool_out tr ir vr (sp - 2) (not (Float.equal x y))
      | Mod | Band | Bor | Bxor | Shl | Shr | And | Or ->
          double_out tr dr vr (sp - 2) (Machine.double_arith op x y));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Veq (positive, tx, ty, tr) ->
      if seen then Cost.arith cost;
      let same =
        match (tx, ty) with
        | (Int, Int) | (Bool, Bool) -> geti ir (sp - 2) = geti ir (sp - 1)
        | _ ->
            Value.equal (box tx ir dr vr (sp - 2)) (box ty ir dr vr (sp - 1))
      in
      bool_out tr ir vr (sp - 2) (same = positive);
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Sconcat (tx, ty) ->
      if seen then Cost.arith cost;
      let y = box ty ir dr vr (sp - 1) in
      let x = box tx ir dr vr (sp - 2) in
      setv vr (sp - 2) (Value.Str (Value.to_display x ^ Value.to_display y));
      step t c locs ir dr vr (pc + 1) (sp - 1)
  | Ineg (tx, tr) ->
      if seen then Cost.arith cost;
      int_out tr ir vr (sp - 1) (Value.wrap32 (-int_in tx ir vr (sp - 1)));
      step t c locs ir dr vr (pc + 1) sp
  | Dneg (tx, tr) ->
      if seen then Cost.arith cost;
      double_out tr dr vr (sp - 1) (-.double_in tx dr vr (sp - 1));
      step t c locs ir dr vr (pc + 1) sp
  | Bnot (tx, tr) ->
      if seen then Cost.arith cost;
      bool_out tr ir vr (sp - 1) (not (bool_in tx ir vr (sp - 1)));
      step t c locs ir dr vr (pc + 1) sp
  | I2d (tx, tr) ->
      if seen then Cost.arith cost;
      let x =
        match tx with
        | Int -> float_of_int (geti ir (sp - 1))
        | _ -> double_in tx dr vr (sp - 1)
      in
      double_out tr dr vr (sp - 1) x;
      step t c locs ir dr vr (pc + 1) sp
  | D2i (tx, tr) ->
      if seen then Cost.arith cost;
      int_out tr ir vr (sp - 1) (Value.d2i (double_in tx dr vr (sp - 1)));
      step t c locs ir dr vr (pc + 1) sp
  | Checkcast ty ->
      setv vr (sp - 1) (Machine.check_cast t.m ty (getv vr (sp - 1)));
      step t c locs ir dr vr (pc + 1) sp
  | Jump target -> step t c locs ir dr vr target sp
  | Back_jump (target, e) ->
      Cost.back_edge cost ir e;
      step t c locs ir dr vr target sp
  | Jump_if_false (ty, target) ->
      if bool_in ty ir vr (sp - 1) then step t c locs ir dr vr (pc + 1) (sp - 1)
      else step t c locs ir dr vr target (sp - 1)
  | Back_if_false (ty, target, e) ->
      if bool_in ty ir vr (sp - 1) then step t c locs ir dr vr (pc + 1) (sp - 1)
      else begin
        Cost.back_edge cost ir e;
        step t c locs ir dr vr target (sp - 1)
      end
  | Invoke_virtual site ->
      if seen then Cost.call cost;
      let base = sp - Array.length site.v_tys in
      let recv = getv vr (base - 1) in
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
      setv vr (base - 1) (apply t target true recv ir dr vr base site.v_tys);
      step t c locs ir dr vr (pc + 1) base
  | Invoke_static site ->
      if seen then Cost.call cost;
      let base = sp - Array.length site.s_tys in
      setv vr base
        (apply t (static_target t site) false Value.Null ir dr vr base site.s_tys);
      step t c locs ir dr vr (pc + 1) (base + 1)
  | Invoke_special site ->
      if seen then Cost.call cost;
      let base = sp - Array.length site.s_tys in
      let recv = getv vr (base - 1) in
      setv vr (base - 1)
        (apply t (static_target t site) true recv ir dr vr base site.s_tys);
      step t c locs ir dr vr (pc + 1) base
  | Invoke_ctor site ->
      if seen then Cost.call cost;
      let base = sp - Array.length site.k_tys in
      run_ctor t site (getv vr (base - 1)) ir dr vr base;
      step t c locs ir dr vr (pc + 1) (base - 1)
  | Ret -> Value.Null
  | Ret_val ty -> Machine.coerce c.mc.Instr.mc_ret (box ty ir dr vr (sp - 1))
  | Pop -> step t c locs ir dr vr (pc + 1) (sp - 1)
  | Dup_i ->
      seti ir sp (geti ir (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp + 1)
  | Dup_d ->
      setd dr sp (getd dr (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp + 1)
  | Dup_v ->
      setv vr sp (getv vr (sp - 1));
      step t c locs ir dr vr (pc + 1) (sp + 1)
  | Moves (moves, grow) ->
      for k = 0 to Array.length moves - 1 do
        let src, dst, ty = Array.unsafe_get moves k in
        move ty ir dr vr (sp + src) (sp + dst)
      done;
      step t c locs ir dr vr (pc + 1) (sp + grow)
  | Widen ty ->
      setv vr (sp - 1) (Machine.coerce Mj.Ast.TDouble (box ty ir dr vr (sp - 1)));
      step t c locs ir dr vr (pc + 1) sp
  | Keep -> step t c locs ir dr vr (pc + 1) sp
  | Yield_point ->
      Threads.maybe_yield ();
      step t c locs ir dr vr (pc + 1) sp
  | Op_lc (o, a, k) ->
      seti ir sp (int_apply o (geti ir a) k);
      step t c locs ir dr vr (pc + 3) (sp + 1)
  | Br_lc (o, a, k, target) ->
      if int_apply o (geti ir a) k <> 0 then step t c locs ir dr vr (pc + 4) sp
      else step t c locs ir dr vr target sp
  | Inc_i (x, k) ->
      seti ir x (Value.wrap32 (geti ir x + k));
      step t c locs ir dr vr (pc + 6) sp

and array_store t c locs ir dr vr pc sp ity vty ~checked =
  let v = box vty ir dr vr (sp - 1) in
  let i = int_in ity ir vr (sp - 2) in
  let r = Heap.deref t.heap (getv vr (sp - 3)) in
  setv vr (sp - 3) (Machine.array_store t.m r i v ~checked);
  step t c locs ir dr vr (pc + 1) (sp - 2)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let boxed_args args =
  let src = Array.of_list args in
  (src, Array.make (Array.length src) Boxed)

let call t recv mname args =
  let src, tys = boxed_args args in
  invoke_virtual t recv mname src tys

let call_static t cls mname args =
  let src, tys = boxed_args args in
  apply t (Link.target t.link cls mname) false Value.Null no_ints no_doubles
    src 0 tys

let new_instance t cls args =
  let obj = Machine.alloc_instance t.m cls in
  let src, tys = boxed_args args in
  run_ctor t { k_cls = cls; k_tys = tys; k_code = None } obj no_ints
    no_doubles src 0;
  obj

let run_main t cls = ignore (call_static t cls "main" [])

let start ?profile ?lines image =
  let m = Machine.create ?profile ?lines image.Compile.im_tab in
  let t =
    { image; m; cost = m.Machine.cost; heap = m.Machine.heap;
      link = Link.create image m ~load:(load m) }
  in
  m.Machine.invoke_run <- (fun recv -> ignore (call t recv "run" []));
  ignore
    (call_code t
       (load m ~this:false image.Compile.im_static_init)
       false Value.Null no_ints no_doubles no_values 0 [||]);
  t

let of_image ?profile image = start ?profile image

let create ?profile ?lines ?elide checked =
  start ?profile ?lines (Compile.compile ?elide checked)
