module Value = Mj_runtime.Value
module Heap = Mj_runtime.Heap
module Cost = Mj_runtime.Cost
module Machine = Mj_runtime.Machine
module Threads = Mj_runtime.Threads
open Mj.Ast

(* A method's frame: its locals, then the slots that carry operand-stack
   entries across block boundaries ([Canon], one per depth), then spill
   temporaries, then the return value. *)
type frame = Value.t array

type compiled = {
  c_label : string;  (* "Class.method", for the cost sink *)
  c_mc : Instr.method_code;
  c_widen : bool array;  (* parameters that widen an int to a double *)
  mutable c_size : int;  (* frame slots; negative until translated *)
  mutable c_run : frame -> Value.t;
}

type t = {
  m : Machine.t;
  link : compiled Link.t;
  mutable translated : int;
}

let fail = Machine.fail

let machine t = t.m

let cycles t = Cost.cycles t.m.Machine.cost

let reset_cycles t = Cost.reset t.m.Machine.cost

let output t = Buffer.contents t.m.Machine.console

let clear_output t = Buffer.clear t.m.Machine.console

let compiled_methods t = t.translated

(* ------------------------------------------------------------------ *)
(* From stack bytecode to expression trees                             *)
(* ------------------------------------------------------------------ *)

(* Each basic block is executed abstractly: an instruction that pushes
   a result pushes the tree computing it, built from the trees it pops.
   Evaluating a tree post-order runs its instructions in bytecode
   order, so a tree can wait on the stack until it is consumed as long
   as nothing else runs before it. Statements (stores, pops, yields,
   constructor calls, block ends) do run, so before one, every pending
   entry below the ones it consumes is spilled: evaluated into a slot
   and replaced by a read of that slot. Constants and slot reads run
   nothing and stay, unless the statement overwrites the slot. *)

type slot = Local of int | Canon of int | Temp of int

type call =
  | Virtual of string
  | Static of string * string
  | Special of string * string
  | Ctor_of of string  (* a constructor run on the receiver *)
  | New_of of string  (* allocate, then run the constructor on it *)

type expr = Const of Value.t | Slot of slot | Node of int * node  (* pc *)

and node =
  | Get_field of string * expr
  | Put_field of string * expr * expr
  | Get_static of string * string
  | Put_static of string * string * expr
  | Aload of bool * expr * expr  (* bounds-checked? *)
  | Astore of bool * expr * expr * expr
  | Alen of expr
  | New_array of ty * expr
  | New_multi of ty * expr list
  | Iop of binop * expr * expr
  | Dop of binop * expr * expr
  | Veq of bool * expr * expr
  | Concat of expr * expr
  | Ineg of expr
  | Dneg of expr
  | Bnot of expr
  | I2d of expr
  | D2i of expr
  | Checkcast of ty * expr
  | Coerce of ty * expr
  | Invoke of call * expr list  (* receiver first, if any *)

type stmt = Set of slot * expr | Drop of expr | Yield of int  (* pc *)

type term = Goto of int | Branch of expr * int * int | Return of expr option

let children = function
  | Get_static _ -> []
  | Get_field (_, a) | Put_static (_, _, a) | Alen a | New_array (_, a)
  | Ineg a | Dneg a | Bnot a | I2d a | D2i a | Checkcast (_, a) | Coerce (_, a)
    ->
      [ a ]
  | Put_field (_, a, b) | Aload (_, a, b) | Iop (_, a, b) | Dop (_, a, b)
  | Veq (_, a, b) | Concat (a, b) ->
      [ a; b ]
  | Astore (_, a, b, c) -> [ a; b; c ]
  | New_multi (_, l) | Invoke (_, l) -> l

let rec reads s = function
  | Const _ -> false
  | Slot s' -> s' = s
  | Node (_, n) -> List.exists (reads s) (children n)

let is_leaf = function Const _ | Slot _ -> true | Node _ -> false

type builder = {
  mc : Instr.method_code;
  mutable stack : expr list;  (* top first *)
  mutable stmts : stmt list;  (* reversed *)
  mutable ntemps : int;
}

let underflow b =
  fail "jit: operand stack underflow in %s.%s" b.mc.Instr.mc_class
    b.mc.Instr.mc_name

let emit b s = b.stmts <- s :: b.stmts

let push b e = b.stack <- e :: b.stack

let pop b =
  match b.stack with
  | e :: rest ->
      b.stack <- rest;
      e
  | [] -> underflow b

(* The top [n] entries, bottom first. *)
let pop_n b n =
  let rec go n acc = if n = 0 then acc else go (n - 1) (pop b :: acc) in
  go n []

(* The lowest temporary no pending expression reads. *)
let fresh_temp b pending =
  let live t = List.exists (reads (Temp t)) pending in
  let rec find t = if live t then find (t + 1) else t in
  let t = find 0 in
  b.ntemps <- max b.ntemps (t + 1);
  t

(* Spill, bottom first, the entries below the top [k] that must run
   before a statement: every tree, and reads of the slot it writes. *)
let flush_below ?writes b k =
  let a = Array.of_list (List.rev b.stack) in
  let n = Array.length a in
  if n < k then underflow b;
  for d = 0 to n - k - 1 do
    let spill =
      match a.(d) with
      | Node _ -> true
      | Slot s -> writes = Some s
      | Const _ -> false
    in
    if spill then begin
      let t = fresh_temp b (Array.to_list a) in
      emit b (Set (Temp t, a.(d)));
      a.(d) <- Slot (Temp t)
    end
  done;
  b.stack <- List.rev (Array.to_list a)

(* Evaluate the top [k] entries now, leaving leaves in their place. *)
let materialize b k =
  flush_below b k;
  let top = pop_n b k in
  List.iter
    (fun e ->
      if is_leaf e then push b e
      else begin
        let t = fresh_temp b b.stack in
        emit b (Set (Temp t, e));
        push b (Slot (Temp t))
      end)
    top

(* Block end: the remaining entries move into the depth-indexed [Canon]
   slots the successors start from. Trees are evaluated bottom first,
   then [cond] (the branch condition, popped but evaluated after them);
   a slot is only written once nothing pending still reads its old
   value. Returns the condition to test. *)
let end_block b ~cond =
  let a = Array.of_list (List.rev b.stack) in
  let n = Array.length a in
  let others d =
    Option.to_list cond @ List.filteri (fun j _ -> j <> d) (Array.to_list a)
  in
  let pending () = Option.to_list cond @ Array.to_list a in
  for d = 0 to n - 1 do
    if not (is_leaf a.(d)) then begin
      let s =
        if List.exists (reads (Canon d)) (others d) then
          Temp (fresh_temp b (pending ()))
        else Canon d
      in
      emit b (Set (s, a.(d)));
      a.(d) <- Slot s
    end
  done;
  let moves d = a.(d) <> Slot (Canon d) in
  let clobbered e =
    List.exists (fun d -> moves d && reads (Canon d) e) (List.init n Fun.id)
  in
  let cond =
    match cond with
    | Some c when clobbered c ->
        let t = fresh_temp b (pending ()) in
        emit b (Set (Temp t, c));
        Some (Slot (Temp t))
    | c -> c
  in
  for d = 0 to n - 1 do
    if moves d && clobbered a.(d) then begin
      let t = fresh_temp b (pending ()) in
      emit b (Set (Temp t, a.(d)));
      a.(d) <- Slot (Temp t)
    end
  done;
  for d = 0 to n - 1 do
    if moves d then emit b (Set (Canon d, a.(d)))
  done;
  b.stack <- [];
  (cond, n)

type block = { stmts : stmt list; term : term }

(* Abstractly execute the instruction at [pc], which neither jumps nor
   returns; the result is the next pc. *)
let simulate b ~leader code pc =
  let node x = push b (Node (pc, x)) in
  let unary f = node (f (pop b)) in
  let binary f =
    let y = pop b in
    node (f (pop b) y)
  in
  let operands k f = node (f (pop_n b k)) in
  let next = pc + 1 in
  match code.(pc) with
  | Instr.Const v ->
      push b (Const v);
      next
  | Instr.Load s ->
      push b (Slot (Local s));
      next
  | Instr.Store s ->
      flush_below b 1 ~writes:(Local s);
      emit b (Set (Local s, pop b));
      next
  | Instr.Dup -> (
      match b.stack with
      | e :: _ when is_leaf e ->
          push b e;
          next
      | _ -> (
          let store_next =
            if next >= Array.length code || leader.(next) then None
            else match code.(next) with Instr.Store s -> Some s | _ -> None
          in
          match store_next with
          | Some s ->
              (* x = e as an expression: store, then read x back *)
              flush_below b 1 ~writes:(Local s);
              emit b (Set (Local s, pop b));
              push b (Slot (Local s));
              next + 1
          | None ->
              materialize b 1;
              push b (List.hd b.stack);
              next))
  | Instr.Dup2 ->
      materialize b 2;
      let l = pop_n b 2 in
      List.iter (push b) (l @ l);
      next
  | Instr.Dup_x1 ->
      materialize b 2;
      let l = pop_n b 2 in
      List.iter (push b) (List.nth l 1 :: l);
      next
  | Instr.Dup_x2 ->
      materialize b 3;
      let l = pop_n b 3 in
      List.iter (push b) (List.nth l 2 :: l);
      next
  | Instr.Pop ->
      flush_below b 1;
      let e = pop b in
      if not (is_leaf e) then emit b (Drop e);
      next
  | Instr.Yield_point ->
      flush_below b 0;
      emit b (Yield pc);
      next
  | Instr.Invoke_ctor (c, argc) ->
      flush_below b (argc + 1);
      emit b (Drop (Node (pc, Invoke (Ctor_of c, pop_n b (argc + 1)))));
      next
  | instr ->
      (match instr with
      | Instr.Get_field f -> unary (fun o -> Get_field (f, o))
      | Instr.Put_field f -> binary (fun o v -> Put_field (f, o, v))
      | Instr.Get_static (c, f) -> node (Get_static (c, f))
      | Instr.Put_static (c, f) -> unary (fun v -> Put_static (c, f, v))
      | Instr.Array_load -> binary (fun a i -> Aload (true, a, i))
      | Instr.Aload_u -> binary (fun a i -> Aload (false, a, i))
      | Instr.Array_store | Instr.Astore_u ->
          let v = pop b in
          binary (fun a i -> Astore (instr = Instr.Array_store, a, i, v))
      | Instr.Array_len -> unary (fun a -> Alen a)
      | Instr.New_object (c, k) ->
          (* the receiver slot, filled once the object exists *)
          operands k (fun l -> Invoke (New_of c, Const Value.Null :: l))
      | Instr.New_array ty -> unary (fun k -> New_array (ty, k))
      | Instr.New_multi (ty, k) -> operands k (fun l -> New_multi (ty, l))
      | Instr.Iop op -> binary (fun x y -> Iop (op, x, y))
      | Instr.Dop op -> binary (fun x y -> Dop (op, x, y))
      | Instr.Veq p -> binary (fun x y -> Veq (p, x, y))
      | Instr.Sconcat -> binary (fun x y -> Concat (x, y))
      | Instr.Ineg -> unary (fun x -> Ineg x)
      | Instr.Dneg -> unary (fun x -> Dneg x)
      | Instr.Bnot -> unary (fun x -> Bnot x)
      | Instr.I2d -> unary (fun x -> I2d x)
      | Instr.D2i -> unary (fun x -> D2i x)
      | Instr.Checkcast ty -> unary (fun x -> Checkcast (ty, x))
      | Instr.Coerce ty -> unary (fun x -> Coerce (ty, x))
      | Instr.Invoke_virtual (m, k) ->
          operands (k + 1) (fun l -> Invoke (Virtual m, l))
      | Instr.Invoke_static (c, m, k) ->
          operands k (fun l -> Invoke (Static (c, m), l))
      | Instr.Invoke_special (c, m, k) ->
          operands (k + 1) (fun l -> Invoke (Special (c, m), l))
      | _ -> fail "jit: unexpected control transfer at %d" pc);
      next

(* Split [mc] into basic blocks and build each from its entry depth.
   Returns the blocks (unreachable ones [None]) and the number of
   [Canon] and [Temp] slots used. *)
let build (mc : Instr.method_code) =
  let code = mc.Instr.mc_code in
  let n = Array.length code in
  let leader = Array.make (n + 1) false in
  leader.(0) <- true;
  let mark t =
    if t < 0 || t > n then fail "jit: jump target %d out of range" t;
    leader.(t) <- true
  in
  Array.iteri
    (fun pc -> function
      | Instr.Jump t | Instr.Jump_if_false t ->
          mark t;
          mark (pc + 1)
      | Instr.Ret | Instr.Ret_val -> mark (pc + 1)
      | _ -> ())
    code;
  let block_of = Array.make (n + 1) (-1) in
  let starts = List.filter (fun pc -> leader.(pc)) (List.init n Fun.id) in
  List.iteri (fun i pc -> block_of.(pc) <- i) starts;
  let nblocks = List.length starts in
  let depth = Array.make nblocks (-1) in
  let blocks = Array.make nblocks None in
  let b = { mc; stack = []; stmts = []; ntemps = 0 } in
  let ncanon = ref 0 in
  let work = Queue.create () in
  (* Enter block at [pc] with [d] entries on the stack. *)
  let reach pc d =
    let i = block_of.(pc) in
    if i < 0 then
      fail "jit: %s.%s falls off its code" mc.Instr.mc_class mc.Instr.mc_name;
    ncanon := max !ncanon d;
    if depth.(i) < 0 then begin
      depth.(i) <- d;
      Queue.push (i, pc) work
    end
    else if depth.(i) <> d then
      fail "jit: inconsistent stack depth at %d in %s.%s" pc mc.Instr.mc_class
        mc.Instr.mc_name;
    i
  in
  let goto pc =
    let _, d = end_block b ~cond:None in
    Goto (reach pc d)
  in
  ignore (reach 0 0);
  while not (Queue.is_empty work) do
    let i, start = Queue.pop work in
    b.stack <- List.init depth.(i) (fun d -> Slot (Canon (depth.(i) - 1 - d)));
    b.stmts <- [];
    let rec step pc =
      if pc >= Array.length code || (pc > start && leader.(pc)) then goto pc
      else
        match code.(pc) with
        | Instr.Jump target -> goto target
        | Instr.Jump_if_false target -> (
            let c = pop b in
            match end_block b ~cond:(Some c) with
            | Some c, d -> Branch (c, reach (pc + 1) d, reach target d)
            | None, _ -> assert false)
        | Instr.Ret ->
            flush_below b 0;
            Return None
        | Instr.Ret_val ->
            flush_below b 1;
            Return (Some (pop b))
        | _ -> step (simulate b ~leader code pc)
    in
    let term = step start in
    blocks.(i) <- Some { stmts = List.rev b.stmts; term }
  done;
  (blocks, !ncanon, b.ntemps)

(* A temporary nothing reads is dropped: its value only mattered for the
   effects of computing it (typically the old value of [i++] as a
   statement). *)
let prune blocks =
  let used = Hashtbl.create 16 in
  let rec note = function
    | Const _ -> ()
    | Slot (Temp t) -> Hashtbl.replace used t ()
    | Slot _ -> ()
    | Node (_, n) -> List.iter note (children n)
  in
  Array.iter
    (Option.iter (fun blk ->
         List.iter
           (function Set (_, e) | Drop e -> note e | Yield _ -> ())
           blk.stmts;
         match blk.term with
         | Branch (c, _, _) | Return (Some c) -> note c
         | Goto _ | Return None -> ()))
    blocks;
  Array.map
    (Option.map (fun blk ->
         { blk with
           stmts =
             List.filter_map
               (function
                 | Set (Temp t, e) when not (Hashtbl.mem used t) ->
                     if is_leaf e then None else Some (Drop e)
                 | s -> Some s)
               blk.stmts }))
    blocks

(* ------------------------------------------------------------------ *)
(* From expression trees to closures                                   *)
(* ------------------------------------------------------------------ *)

(* Every instruction that charges, allocates, calls, yields or traps
   first moves the line profiler to its own source line. The profiler
   reads its position only when the meter moves, so instructions that
   never touch the meter need no move. Int and boolean subtrees compute
   unboxed values (doubles, floats); a value is boxed when it is stored,
   passed or returned. *)

type kind = K_int | K_double | K_bool | K_value

let kind = function
  | Const (Value.Int _) -> K_int
  | Const (Value.Double _) -> K_double
  | Const (Value.Bool _) -> K_bool
  | Const _ | Slot _ -> K_value
  | Node (_, n) -> (
      match n with
      | Iop (op, _, _) -> if Machine.is_compare op then K_bool else K_int
      | Dop (op, _, _) -> if Machine.is_compare op then K_bool else K_double
      | Veq _ | Bnot _ -> K_bool
      | Ineg _ | D2i _ | Alen _ -> K_int
      | Dneg _ | I2d _ -> K_double
      | _ -> K_value)

type ctx = {
  t : t;
  locs : Mj.Loc.t array;
  canon0 : int;
  temp0 : int;
}

let index ctx = function
  | Local n -> n
  | Canon d -> ctx.canon0 + d
  | Temp t -> ctx.temp0 + t

(* The meter and the source line of the instruction at [pc]. *)
let at ctx pc = (ctx.t.m.Machine.cost, ctx.locs.(pc))

let arith cost loc =
  Cost.at_line cost loc;
  Cost.arith cost

let to_int = function Value.Int n -> n | v -> Machine.as_int v

let to_double = function
  | Value.Double f -> f
  | Value.Int n -> float_of_int n
  | v -> Machine.as_double v

let to_bool = function Value.Bool b -> b | v -> Machine.as_bool v

let widen = function Value.Int n -> Value.Double (float_of_int n) | v -> v

let rec eval_list args fr i =
  if i = Array.length args then []
  else
    let v = args.(i) fr in
    v :: eval_list args fr (i + 1)

(* [argv] evaluated from [first] on; the slots before hold [init]. *)
let eval_array ?(first = 0) ?(init = Value.Null) argv fr =
  let a = Array.make (Array.length argv) init in
  for i = first to Array.length argv - 1 do
    a.(i) <- argv.(i) fr
  done;
  a

(* ---- calls -------------------------------------------------------- *)

(* A call passes [argv]: the receiver first when the callee has one,
   then the arguments. They land in the callee's frame at the same
   indices, each widened to its parameter type. *)

let rec prepare t c =
  if c.c_size < 0 then begin
    translate t c;
    t.translated <- t.translated + 1
  end

and new_frame t c =
  prepare t c;
  Array.make c.c_size Value.Null

(* Evaluate [argv] from [first] on into [fr]. *)
and fill c fr argv first src =
  let skip = Array.length argv - Array.length c.c_widen in
  for i = first to Array.length argv - 1 do
    let v = argv.(i) src in
    Array.unsafe_set fr i
      (if i >= skip && Array.unsafe_get c.c_widen (i - skip) then widen v
       else v)
  done

(* Run a filled frame inside the method bracket. *)
and enter t c fr =
  let cost = t.m.Machine.cost in
  Machine.enter_frame t.m;
  Cost.enter_method cost c.c_label;
  match c.c_run fr with
  | v ->
      Cost.leave_method cost;
      Machine.leave_frame t.m;
      v
  | exception e ->
      Cost.leave_method cost;
      Machine.leave_frame t.m;
      raise e

(* The generic path: evaluated arguments, any target. *)
and apply t target ~this args =
  match target with
  | Link.Native f ->
      let l = Array.to_list args in
      if this then f (List.hd l) (List.tl l) else f Value.Null l
  | Link.Code c ->
      if Array.length args <> Array.length c.c_widen + Bool.to_int this
      then begin
        (* found when the callee's frame is built, inside its bracket *)
        Machine.enter_frame t.m;
        Cost.enter_method t.m.Machine.cost c.c_label;
        Cost.leave_method t.m.Machine.cost;
        Machine.leave_frame t.m;
        fail "jit: arity mismatch calling %s" c.c_label
      end;
      let fr = new_frame t c in
      fill c fr (Array.map Fun.const args) 0 fr;
      enter t c fr

and invoke_virtual t recv mname args =
  let heap = t.m.Machine.heap in
  let cls = Heap.object_class heap (Heap.deref heap recv) in
  apply t (Link.target t.link cls mname) ~this:true
    (Array.append [| recv |] args)

(* ---- translation -------------------------------------------------- *)

and translate t c =
  let mc = c.c_mc in
  let blocks, ncanon, ntemps = build mc in
  let blocks = prune blocks in
  let nlocals = max 1 mc.Instr.mc_nlocals in
  let ctx =
    { t; locs = Instr.expand_lines mc; canon0 = nlocals;
      temp0 = nlocals + ncanon }
  in
  let ret = nlocals + ncanon + ntemps in
  let code =
    Array.map
      (function
        | None -> fun _ -> fail "jit: unreachable block entered"
        | Some blk -> block ctx mc ~ret blk)
      blocks
  in
  c.c_run <-
    (if Array.length code = 1 then
       let b0 = code.(0) in
       fun fr ->
         ignore (b0 fr);
         Array.unsafe_get fr ret
     else fun fr ->
       let b = ref 0 in
       while !b >= 0 do
         b := (Array.unsafe_get code !b) fr
       done;
       Array.unsafe_get fr ret);
  c.c_size <- ret + 1

and block ctx mc ~ret blk =
  let term =
    match blk.term with
    | Goto i -> fun _ -> i
    | Branch (c, yes, no) ->
        let f = cb ctx c in
        fun fr -> if f fr then yes else no
    | Return None ->
        fun fr ->
          Array.unsafe_set fr ret Value.Null;
          -1
    | Return (Some e) ->
        let f = cv ctx e and ty = mc.Instr.mc_ret in
        fun fr ->
          Array.unsafe_set fr ret (Machine.coerce ty (f fr));
          -1
  in
  List.fold_right
    (fun s k ->
      let s = stmt ctx s in
      fun fr ->
        s fr;
        k fr)
    blk.stmts term

and stmt ctx = function
  | Set (s, e) ->
      let i = index ctx s in
      let f = cv ctx e in
      fun fr -> Array.unsafe_set fr i (f fr)
  | Drop e ->
      let f = cv ctx e in
      fun fr -> ignore (f fr)
  | Yield pc ->
      let cost = ctx.t.m.Machine.cost and loc = ctx.locs.(pc) in
      fun _ ->
        Cost.at_line cost loc;
        Threads.maybe_yield ()

(* Boxed value of any tree. *)
and cv ctx e : frame -> Value.t =
  match e with
  | Const v -> fun _ -> v
  | Slot s ->
      let i = index ctx s in
      fun fr -> Array.unsafe_get fr i
  | Node (pc, n) -> (
      match kind e with
      | K_int ->
          let f = ci ctx e in
          fun fr -> Value.Int (f fr)
      | K_double ->
          let f = cd ctx e in
          fun fr -> Value.Double (f fr)
      | K_bool ->
          let f = cb ctx e in
          fun fr -> Value.Bool (f fr)
      | K_value -> value_node ctx pc n)

and ci ctx e : frame -> int =
  match e with
  | Const (Value.Int k) -> fun _ -> k
  | Slot s ->
      let i = index ctx s in
      fun fr -> to_int (Array.unsafe_get fr i)
  | Node (pc, n) when kind e = K_int -> int_node ctx pc n
  | _ ->
      let f = cv ctx e in
      fun fr -> to_int (f fr)

and cd ctx e : frame -> float =
  match e with
  | Const (Value.Double x) -> fun _ -> x
  | Const (Value.Int k) ->
      let x = float_of_int k in
      fun _ -> x
  | Slot s ->
      let i = index ctx s in
      fun fr -> to_double (Array.unsafe_get fr i)
  | Node (pc, n) when kind e = K_double -> double_node ctx pc n
  | Node _ when kind e = K_int ->
      let f = ci ctx e in
      fun fr -> float_of_int (f fr)
  | _ ->
      let f = cv ctx e in
      fun fr -> to_double (f fr)

and cb ctx e : frame -> bool =
  match e with
  | Const (Value.Bool x) -> fun _ -> x
  | Slot s ->
      let i = index ctx s in
      fun fr -> to_bool (Array.unsafe_get fr i)
  | Node (pc, n) when kind e = K_bool -> bool_node ctx pc n
  | _ ->
      let f = cv ctx e in
      fun fr -> to_bool (f fr)

(* Binary operators charge after both operands, as the instruction
   follows them; the commonest ones get their own closure, the rest go
   through the shared operator tables. *)
and int_node ctx pc n : frame -> int =
  let w = Value.wrap32 in
  match n with
  | Iop (op, x, y) -> (
      let x = ci ctx x and y = ci ctx y and cost, loc = at ctx pc in
      match op with
      | Add -> fun fr -> let a = x fr in let b = y fr in arith cost loc; w (a + b)
      | Sub -> fun fr -> let a = x fr in let b = y fr in arith cost loc; w (a - b)
      | Mul -> fun fr -> let a = x fr in let b = y fr in arith cost loc; w (a * b)
      | _ ->
          fun fr ->
            let a = x fr in
            let b = y fr in
            arith cost loc;
            Machine.int_arith op a b)
  | Ineg x ->
      let x = ci ctx x in
      fun fr -> w (-x fr)
  | D2i x ->
      let x = cd ctx x in
      fun fr -> Value.d2i (x fr)
  | Alen a ->
      let a = cv ctx a and heap = ctx.t.m.Machine.heap in
      fun fr -> Heap.array_length heap (Heap.deref heap (a fr))
  | _ -> assert false

and double_node ctx pc n : frame -> float =
  match n with
  | Dop (op, x, y) -> (
      let x = cd ctx x and y = cd ctx y and cost, loc = at ctx pc in
      match op with
      | Add -> fun fr -> let a = x fr in let b = y fr in arith cost loc; a +. b
      | Sub -> fun fr -> let a = x fr in let b = y fr in arith cost loc; a -. b
      | Mul -> fun fr -> let a = x fr in let b = y fr in arith cost loc; a *. b
      | _ ->
          fun fr ->
            let a = x fr in
            let b = y fr in
            arith cost loc;
            Machine.double_arith op a b)
  | Dneg x ->
      let x = cd ctx x in
      fun fr -> -.x fr
  | I2d x -> cd ctx x
  | _ -> assert false

and bool_node ctx pc n : frame -> bool =
  match n with
  | Iop (op, x, y) -> (
      let x = ci ctx x and y = ci ctx y and cost, loc = at ctx pc in
      match op with
      | Lt -> fun fr -> let a = x fr in let b = y fr in arith cost loc; a < b
      | _ ->
          fun fr ->
            let a = x fr in
            let b = y fr in
            arith cost loc;
            Machine.int_compare op a b)
  | Dop (op, x, y) ->
      let x = cd ctx x and y = cd ctx y and cost, loc = at ctx pc in
      fun fr ->
        let a = x fr in
        let b = y fr in
        arith cost loc;
        Machine.double_compare op a b
  | Veq (positive, x, y) ->
      let x = cv ctx x and y = cv ctx y in
      fun fr ->
        let a = x fr in
        let b = y fr in
        Value.equal a b = positive
  | Bnot x ->
      let x = cb ctx x in
      fun fr -> not (x fr)
  | _ -> assert false

and value_node ctx pc n : frame -> Value.t =
  let t = ctx.t in
  let m = t.m in
  let cost = m.Machine.cost and heap = m.Machine.heap in
  let loc = ctx.locs.(pc) in
  match n with
  | Get_field (f, o) ->
      let site = Heap.field_site f and o = cv ctx o in
      fun fr ->
        let r = o fr in
        Cost.at_line cost loc;
        Cost.field cost;
        Heap.get_field_at heap (Heap.deref heap r) site
  | Put_field (f, o, v) ->
      let site = Heap.field_site f and o = cv ctx o and v = cv ctx v in
      fun fr ->
        let r = o fr in
        let x = v fr in
        Cost.at_line cost loc;
        Cost.field cost;
        Heap.set_field_at heap (Heap.deref heap r) site x;
        x
  | Get_static (cls, f) ->
      let cell = Machine.static_cell m cls f in
      let note = Printf.sprintf "read %s.%s" cls f in
      fun _ ->
        Cost.at_line cost loc;
        Cost.field cost;
        if Threads.active () then Threads.note note;
        (match cell with Some c -> !c | None -> Machine.static_get m cls f)
  | Put_static (cls, f, v) ->
      let cell = Machine.static_cell m cls f and v = cv ctx v in
      fun fr ->
        let x = v fr in
        Cost.at_line cost loc;
        Cost.field cost;
        if Threads.active () then
          Threads.note
            (Printf.sprintf "write %s.%s = %s" cls f (Value.to_display x));
        (match cell with
        | Some c -> c := x
        | None -> Machine.static_set m cls f x);
        x
  | Aload (checked, a, i) ->
      let a = cv ctx a and i = ci ctx i in
      fun fr ->
        let r = a fr in
        let k = i fr in
        Cost.at_line cost loc;
        if checked then begin
          Cost.array cost;
          Heap.array_get heap (Heap.deref heap r) k
        end
        else begin
          Cost.array_unchecked cost;
          Heap.array_get_unchecked heap (Heap.deref heap r) k
        end
  | Astore (checked, a, i, v) ->
      let a = cv ctx a and i = ci ctx i and v = cv ctx v in
      fun fr ->
        let r = a fr in
        let k = i fr in
        let x = v fr in
        Cost.at_line cost loc;
        if checked then Cost.array cost else Cost.array_unchecked cost;
        Machine.array_store m (Heap.deref heap r) k x ~checked
  | New_array (elem, k) ->
      let k = ci ctx k in
      fun fr ->
        let len = k fr in
        Cost.at_line cost loc;
        Machine.alloc_array m elem len
  | New_multi (elem, dims) ->
      let dims = Array.of_list (List.map (ci ctx) dims) in
      fun fr ->
        let rec eval i =
          if i = Array.length dims then []
          else
            let d = dims.(i) fr in
            d :: eval (i + 1)
        in
        let ds = eval 0 in
        Cost.at_line cost loc;
        Machine.alloc_multi m elem ds
  | Concat (x, y) ->
      let x = cv ctx x and y = cv ctx y in
      fun fr ->
        let a = x fr in
        let b = y fr in
        Value.Str (Value.to_display a ^ Value.to_display b)
  | Checkcast (ty, x) ->
      let x = cv ctx x in
      fun fr -> Machine.check_cast m ty (x fr)
  | Coerce (ty, x) ->
      let x = cv ctx x in
      fun fr -> Machine.coerce ty (x fr)
  | Invoke (call, args) -> invoke_node ctx pc call args
  | _ -> assert false

(* Calls evaluate their operands, then charge; what they run was linked
   at translation: a compiled method whose frame the operands fill
   directly, or a native. A target that does not resolve raises after
   the charge, as the call itself would. *)
and invoke_node ctx pc call args =
  let t = ctx.t in
  let m = t.m in
  let cost = m.Machine.cost and loc = ctx.locs.(pc) in
  let charge () =
    Cost.at_line cost loc;
    Cost.call cost
  in
  let argv = Array.of_list (List.map (cv ctx) args) in
  let this = match call with Static _ -> false | _ -> true in
  let fits c = Array.length argv = Array.length c.c_widen + Bool.to_int this in
  let linked resolve fast =
    match resolve () with
    | target -> fast target
    | exception Heap.Runtime_error msg ->
        fun fr ->
          ignore (eval_array argv fr);
          charge ();
          raise (Heap.Runtime_error msg)
  in
  match call with
  | Static (cls, _) | Special (cls, _) | Ctor_of cls ->
      linked
        (fun () ->
          match call with
          | Static (_, mname) | Special (_, mname) -> Link.target t.link cls mname
          | _ -> Link.Code (Link.ctor t.link cls (Array.length argv - 1)))
        (function
          | Link.Code c when fits c ->
              fun fr ->
                let nf = new_frame t c in
                fill c nf argv 0 fr;
                charge ();
                enter t c nf
          | Link.Native f when not this ->
              fun fr ->
                let l = eval_list argv fr 0 in
                charge ();
                f Value.Null l
          | target ->
              fun fr ->
                let a = eval_array argv fr in
                charge ();
                apply t target ~this a)
  | New_of cls -> (
      (* no call charge: the allocation is the instruction's cost *)
      match Link.ctor t.link cls (Array.length argv - 1) with
      | c ->
          fun fr ->
            let nf = new_frame t c in
            fill c nf argv 1 fr;
            Cost.at_line cost loc;
            let obj = Machine.alloc_instance m cls in
            Array.unsafe_set nf 0 obj;
            ignore (enter t c nf);
            obj
      | exception Heap.Runtime_error msg ->
          fun fr ->
            ignore (eval_array argv fr);
            Cost.at_line cost loc;
            ignore (Machine.alloc_instance m cls);
            raise (Heap.Runtime_error msg))
  | Virtual mname ->
      (* Monomorphic inline cache: the receiver layout last seen here
         and what it resolved to. *)
      let seen = ref None in
      let target r =
        match r with
        | Value.Ref i -> (
            match Heap.object_layout m.Machine.heap i with
            | Some layout -> (
                match !seen with
                | Some (l, tg) when l == layout -> Some tg
                | _ -> (
                    match Link.target t.link layout.Heap.l_cls mname with
                    | tg ->
                        seen := Some (layout, tg);
                        Some tg
                    | exception Heap.Runtime_error _ -> None))
            | None | (exception Heap.Runtime_error _) -> None)
        | _ -> None
      in
      fun fr ->
        let r = argv.(0) fr in
        match target r with
        | Some (Link.Code c) when fits c ->
            let nf = new_frame t c in
            Array.unsafe_set nf 0 r;
            fill c nf argv 1 fr;
            charge ();
            enter t c nf
        | Some tg ->
            let a = eval_array argv fr ~first:1 ~init:r in
            charge ();
            apply t tg ~this a
        | None ->
            (* not an object, or no such method: fail as the bytecode does *)
            let a = eval_array argv fr ~first:1 in
            charge ();
            invoke_virtual t r mname (Array.sub a 1 (Array.length a - 1))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let shell (mc : Instr.method_code) =
  { c_label = mc.Instr.mc_class ^ "." ^ mc.Instr.mc_name;
    c_mc = mc;
    c_widen =
      Array.of_list (List.map (fun ty -> ty = TDouble) mc.Instr.mc_params);
    c_size = -1;
    c_run = (fun _ -> fail "jit: %s run before translation" mc.Instr.mc_name) }

let call t recv mname args = invoke_virtual t recv mname (Array.of_list args)

let call_static t cls mname args =
  apply t (Link.target t.link cls mname) ~this:false (Array.of_list args)

let new_instance t cls args =
  let obj = Machine.alloc_instance t.m cls in
  let c = Link.ctor t.link cls (List.length args) in
  ignore (apply t (Link.Code c) ~this:true (Array.of_list (obj :: args)));
  obj

let run_main t cls = ignore (call_static t cls "main" [])

let of_image ?(tariff = Cost.jit_tariff) ?sink ?lines image =
  let m = Machine.create ~tariff ?sink ?lines image.Compile.im_tab in
  let t = { m; link = Link.create image m ~load:shell; translated = 0 } in
  m.Machine.invoke_run <- (fun recv -> ignore (call t recv "run" []));
  let clinit = shell image.Compile.im_static_init in
  translate t clinit;
  ignore (enter t clinit (Array.make clinit.c_size Value.Null));
  t

let create ?tariff ?sink ?lines ?elide checked =
  of_image ?tariff ?sink ?lines (Compile.compile ?elide checked)
