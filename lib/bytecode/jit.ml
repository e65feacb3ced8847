module Value = Mj_runtime.Value
module Heap = Mj_runtime.Heap
module Cost = Mj_runtime.Cost
module Machine = Mj_runtime.Machine
module Threads = Mj_runtime.Threads
open Mj.Ast

type lane = Verify.ty = Int | Bool | Double | Boxed

(* A method's frame: its locals, then the slots that carry operand-stack
   entries across block boundaries ([Canon], one per depth), then spill
   temporaries, then the return value — in three lanes indexed alike:
   ints and booleans (0/1), doubles, and boxed values. Each slot is read
   and written in the lane of its verified type (DESIGN.md §2b). The
   double lane ends with an accumulator, the value lane with scratch
   slots for double operands of unknown type. *)
type frame = Frame.t = { i : int array; d : Float.Array.t; v : Value.t array }

type compiled = {
  c_label : string;  (* "Class.method", for the cost profile *)
  c_mc : Instr.method_code;
  mutable c_verified : Verify.t option;  (* until translated *)
  c_decl : Mj.Ast.ty array;  (* declared parameter types *)
  c_entry : lane array;  (* the lane of each local on entry *)
  mutable c_run : frame -> Value.t;
  mutable c_frames : Frame.pool option;  (* once translated *)
}

type t = {
  m : Machine.t;
  link : compiled Link.t;
  mutable translated : int;
}

let fail = Machine.fail

let machine t = t.m

let cycles t = Cost.cycles t.m.Machine.cost

let output t = Buffer.contents t.m.Machine.console

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

type expr = Const of Value.t | Slot of slot * lane | Node of int * node  (* pc *)

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

(* [Set]: the slot and the lane it is written in. *)
type stmt = Set of slot * lane * expr | Drop of expr | Yield of int  (* pc *)

(* Jumps name their back-edge index, [-1] for a forward one; a branch
   jumps to its second block when the condition is false. *)
type term =
  | Goto of int * int
  | Branch of expr * int * int * int
  | Return of expr option

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
  | Slot (s', _) -> s' = s
  | Node (_, n) -> List.exists (reads s) (children n)

let is_leaf = function Const _ | Slot _ -> true | Node _ -> false

(* The lane a tree's value is computed in. *)
let ety = function
  | Const (Value.Int _) -> Int
  | Const (Value.Double _) -> Double
  | Const (Value.Bool _) -> Bool
  | Const _ -> Boxed
  | Slot (_, ty) -> ty
  | Node (_, n) -> (
      match n with
      | Iop (op, _, _) -> if Machine.is_compare op then Bool else Int
      | Dop (op, _, _) -> if Machine.is_compare op then Bool else Double
      | Veq _ | Bnot _ -> Bool
      | Ineg _ | D2i _ | Alen _ -> Int
      | Dneg _ | I2d _ -> Double
      | _ -> Boxed)

type builder = {
  v : Verify.t;
  mutable stack : expr list;  (* top first *)
  mutable stmts : stmt list;  (* reversed *)
  mutable ntemps : int;
}

let emit b s = b.stmts <- s :: b.stmts

let push b e = b.stack <- e :: b.stack

(* The verifier proved every pop finds an entry. *)
let pop b =
  match b.stack with
  | e :: rest ->
      b.stack <- rest;
      e
  | [] -> assert false

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
(* Evaluate [e] into a fresh temporary now; the read that replaces it. *)
let spill b pending e =
  let t = fresh_temp b pending in
  emit b (Set (Temp t, ety e, e));
  Slot (Temp t, ety e)

let flush_below ?writes b k =
  let a = Array.of_list (List.rev b.stack) in
  let n = Array.length a in
  for d = 0 to n - k - 1 do
    let must =
      match a.(d) with
      | Node _ -> true
      | Slot (s, _) -> writes = Some s
      | Const _ -> false
    in
    if must then a.(d) <- spill b (Array.to_list a) a.(d)
  done;
  b.stack <- List.rev (Array.to_list a)

(* Evaluate the top [k] entries now, leaving leaves in their place. *)
let materialize b k =
  flush_below b k;
  let top = pop_n b k in
  List.iter (fun e -> push b (if is_leaf e then e else spill b b.stack e)) top

(* Block end: the remaining entries move into the depth-indexed [Canon]
   slots the successors start from. Trees are evaluated bottom first,
   then [cond] (the branch condition, popped but evaluated after them);
   a slot is only written once nothing pending still reads its old
   value. [Canon d] is written in the lane the successor [succ] reads
   it in. Returns the condition to test. *)
let end_block b ~succ ~cond =
  let a = Array.of_list (List.rev b.stack) in
  let n = Array.length a in
  let lane d = Verify.slot b.v succ (Verify.frame_locals b.v + d) in
  let others d =
    Option.to_list cond @ List.filteri (fun j _ -> j <> d) (Array.to_list a)
  in
  let pending () = Option.to_list cond @ Array.to_list a in
  for d = 0 to n - 1 do
    if not (is_leaf a.(d)) then
      a.(d) <-
        (if List.exists (reads (Canon d)) (others d) then
           spill b (pending ()) a.(d)
         else begin
           emit b (Set (Canon d, lane d, a.(d)));
           Slot (Canon d, lane d)
         end)
  done;
  let moves d = match a.(d) with Slot (Canon d', _) -> d' <> d | _ -> true in
  let clobbered e =
    List.exists (fun d -> moves d && reads (Canon d) e) (List.init n Fun.id)
  in
  let cond =
    match cond with
    | Some c when clobbered c -> Some (spill b (pending ()) c)
    | c -> c
  in
  for d = 0 to n - 1 do
    if moves d && clobbered a.(d) then a.(d) <- spill b (pending ()) a.(d)
  done;
  for d = 0 to n - 1 do
    if moves d then emit b (Set (Canon d, lane d, a.(d)))
  done;
  b.stack <- [];
  cond

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
      push b (Slot (Local s, Verify.slot b.v pc s));
      next
  | Instr.Store s ->
      flush_below b 1 ~writes:(Local s);
      emit b (Set (Local s, Verify.top b.v pc 0, pop b));
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
              let ty = Verify.top b.v pc 0 in
              flush_below b 1 ~writes:(Local s);
              emit b (Set (Local s, ty, pop b));
              push b (Slot (Local s, ty));
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
      | _ -> assert false (* control transfers end the block *));
      next

(* Split the verified method into basic blocks and build each reachable
   one from its entry depth. Returns the blocks (unreachable ones
   [None]) and the number of [Temp] slots used. *)
let build v (mc : Instr.method_code) =
  let code = mc.Instr.mc_code in
  let n = Array.length code in
  let leader = Array.make (n + 1) false in
  leader.(0) <- true;
  Array.iteri
    (fun pc instr ->
      if Verify.depth v pc >= 0 then
        match instr with
        | Instr.Jump t | Instr.Jump_if_false t ->
            leader.(t) <- true;
            leader.(pc + 1) <- true
        | Instr.Ret | Instr.Ret_val -> leader.(pc + 1) <- true
        | _ -> ())
    code;
  let block_of = Array.make (n + 1) (-1) in
  let starts = List.filter (fun pc -> leader.(pc)) (List.init n Fun.id) in
  List.iteri (fun i pc -> block_of.(pc) <- i) starts;
  let blocks = Array.make (List.length starts) None in
  let queued = Array.make (List.length starts) false in
  let b = { v; stack = []; stmts = []; ntemps = 0 } in
  let work = Queue.create () in
  let reach pc =
    let i = block_of.(pc) in
    if not queued.(i) then begin
      queued.(i) <- true;
      Queue.push (i, pc) work
    end;
    i
  in
  let goto ~from pc =
    ignore (end_block b ~succ:pc ~cond:None);
    Goto (reach pc, from)
  in
  ignore (reach 0);
  while not (Queue.is_empty work) do
    let i, start = Queue.pop work in
    let d0 = Verify.depth v start and nloc = Verify.frame_locals v in
    b.stack <-
      List.init d0 (fun k ->
          let d = d0 - 1 - k in
          Slot (Canon d, Verify.slot v start (nloc + d)));
    b.stmts <- [];
    let rec step pc =
      if pc > start && leader.(pc) then goto ~from:(-1) pc
      else
        match code.(pc) with
        | Instr.Jump target -> goto ~from:(Verify.back_edge v pc) target
        | Instr.Jump_if_false target -> (
            let c = pop b in
            match end_block b ~succ:target ~cond:(Some c) with
            | Some c ->
                Branch
                  (c, reach (pc + 1), reach target, Verify.back_edge v pc)
            | None -> assert false)
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
  (blocks, b.ntemps)

(* A temporary nothing reads is dropped: its value only mattered for the
   effects of computing it (typically the old value of [i++] as a
   statement). *)
let prune blocks =
  let used = Hashtbl.create 16 in
  let rec note = function
    | Const _ -> ()
    | Slot (Temp t, _) -> Hashtbl.replace used t ()
    | Slot _ -> ()
    | Node (_, n) -> List.iter note (children n)
  in
  Array.iter
    (Option.iter (fun blk ->
         List.iter
           (function Set (_, _, e) | Drop e -> note e | Yield _ -> ())
           blk.stmts;
         match blk.term with
         | Branch (c, _, _, _) | Return (Some c) -> note c
         | Goto _ | Return None -> ()))
    blocks;
  Array.map
    (Option.map (fun blk ->
         { blk with
           stmts =
             List.filter_map
               (function
                 | Set (Temp t, _, e) when not (Hashtbl.mem used t) ->
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
   never touch the meter need no move. Int, boolean and double subtrees
   compute unboxed values, and slots hold them unboxed in their lanes; a
   value is boxed only where it leaves the lanes: stored to a field, a
   static or an array, passed to a native, returned, or held in a slot
   of unknown type. *)

type ctx = {
  t : t;
  locs : Mj.Loc.t array;
  canon0 : int;
  temp0 : int;
  edges0 : int;
  acc : int;  (* the double lane's accumulator *)
  scratch0 : int;
  mutable scratch : int;  (* value-lane slots from [scratch0] [double_operand] took *)
}

let index ctx = function
  | Local n -> n
  | Canon d -> ctx.canon0 + d
  | Temp t -> ctx.temp0 + t

(* The meter, the source line of the instruction at [pc], and what an
   arithmetic instruction charges. *)
let at ctx pc =
  let cost = ctx.t.m.Machine.cost in
  (cost, ctx.locs.(pc), (Cost.tariff cost).Cost.arith)

let arith = Cost.charge_at

let to_int = function Value.Int n -> n | v -> Machine.as_int v

let to_double = function
  | Value.Double f -> f
  | Value.Int n -> float_of_int n
  | v -> Machine.as_double v

let to_bool = function Value.Bool b -> b | v -> Machine.as_bool v

let vtrue = Value.Bool true

let vfalse = Value.Bool false

let of_bool b = if b then vtrue else vfalse

(* A value into slot [j] of lane [ty], checked as a typed operator checks
   a boxed operand. *)
let unbox ty fr j v =
  match ty with
  | Int -> Array.unsafe_set fr.i j (Machine.as_int v)
  | Bool -> Array.unsafe_set fr.i j (Bool.to_int (Machine.as_bool v))
  | Double -> Float.Array.unsafe_set fr.d j (Machine.as_double v)
  | Boxed -> Array.unsafe_set fr.v j v

let no_conversion (_ : frame) = ()

(* The check a typed operator makes of an operand of unknown type, which
   [double_operand] put in slot [k]; its value is already converted. *)
let late_check (fr : frame) k =
  match Array.unsafe_get fr.v k with
  | Value.Double _ | Value.Int _ -> ()
  | v -> ignore (Machine.as_double v)

(* A double subtree leaves its value in the accumulator slot of the
   double lane instead of returning it, since a closure returning a
   float would box it. *)
let[@inline] acc_get fr acc = Float.Array.unsafe_get fr.d acc

let[@inline] acc_set fr acc x = Float.Array.unsafe_set fr.d acc x

(* Int operands of the hottest nodes: a slot or a constant is read in
   the node's own closure rather than through a closure call. *)
type iop = I_slot of int | I_const of int | I_tree of (frame -> int)

type vop = V_slot of int | V_tree of (frame -> Value.t)

let[@inline] iget o (fr : frame) =
  match o with
  | I_slot k -> Array.unsafe_get fr.i k
  | I_const c -> c
  | I_tree f -> f fr

let[@inline] vget o (fr : frame) =
  match o with V_slot k -> Array.unsafe_get fr.v k | V_tree f -> f fr

(* An operand evaluated in its own lane; a double one into accumulator
   [acc]. *)
type arg =
  | A_slot of lane * int  (* a slot read, copied without a call *)
  | A_int of (frame -> int)
  | A_bool of (frame -> bool)
  | A_double of (frame -> unit) * int
  | A_value of (frame -> Value.t)

let boxed = function
  | A_slot (Int, k) -> fun fr -> Value.Int (Array.unsafe_get fr.i k)
  | A_slot (Bool, k) -> fun fr -> of_bool (Array.unsafe_get fr.i k <> 0)
  | A_slot (Double, k) -> fun fr -> Value.Double (Float.Array.unsafe_get fr.d k)
  | A_slot (Boxed, k) -> fun fr -> Array.unsafe_get fr.v k
  | A_int f -> fun fr -> Value.Int (f fr)
  | A_bool f -> fun fr -> of_bool (f fr)
  | A_double (f, acc) ->
      fun fr ->
        f fr;
        Value.Double (acc_get fr acc)
  | A_value f -> f

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

(* A call passes the receiver first when the callee has one, then the
   arguments; they land in the callee's frame at the same indices. An
   argument already in its slot's lane (or an int its double parameter
   widens) goes straight there; any other is boxed into the value lane
   and converted, checked, inside the callee's bracket, after the arity
   check — where the interpreter-style VM converts it too. *)

(* The declared type slot [j] of [c] widens to, if it is a parameter. *)
let param_of c ~this j =
  let k = j - Bool.to_int this in
  if k >= 0 && k < Array.length c.c_decl then Some c.c_decl.(k) else None

let widen pty v = match pty with Some ty -> Machine.coerce ty v | None -> v

(* How [a] reaches slot [j] of a frame of [c]: the writer, and whether the
   slot needs converting once the callee is entered. *)
let writer c ~this j a : (frame -> frame -> unit) * bool =
  let pty = param_of c ~this j in
  match (a, c.c_entry.(j)) with
  | A_slot (((Int | Bool) as l), k), r when l = r ->
      ((fun src dst -> Array.unsafe_set dst.i j (Array.unsafe_get src.i k)), false)
  | A_slot (Double, k), Double ->
      ( (fun src dst ->
          Float.Array.unsafe_set dst.d j (Float.Array.unsafe_get src.d k)),
        false )
  | A_slot (Boxed, k), Boxed ->
      ( (fun src dst -> Array.unsafe_set dst.v j (widen pty (Array.unsafe_get src.v k))),
        false )
  | A_int f, Int -> ((fun src dst -> Array.unsafe_set dst.i j (f src)), false)
  | A_bool f, Bool ->
      ((fun src dst -> Array.unsafe_set dst.i j (Bool.to_int (f src))), false)
  | A_double (f, acc), Double ->
      ( (fun src dst ->
          f src;
          Float.Array.unsafe_set dst.d j (acc_get src acc)),
        false )
  | A_int f, Double when pty = Some TDouble ->
      ( (fun src dst -> Float.Array.unsafe_set dst.d j (float_of_int (f src))),
        false )
  | a, Boxed ->
      let f = boxed a in
      ((fun src dst -> Array.unsafe_set dst.v j (widen pty (f src))), false)
  | a, _ ->
      let f = boxed a in
      ((fun src dst -> Array.unsafe_set dst.v j (f src)), true)

(* The conversions inside the bracket for the slots [pending] marks. *)
let conversion c ~this pending =
  match List.filter (fun j -> pending.(j)) (List.init (Array.length pending) Fun.id) with
  | [] -> no_conversion
  | js ->
      let steps =
        Array.of_list
          (List.map (fun j -> (j, c.c_entry.(j), param_of c ~this j)) js)
      in
      fun fr ->
        Array.iter
          (fun (j, ty, pty) -> unbox ty fr j (widen pty (Array.unsafe_get fr.v j)))
          steps

(* Writers for [argv] (one per callee slot) from [first] on, with the
   conversion; [recv] says slot 0 holds a receiver stored boxed. *)
let passing c ~this ~recv argv =
  let n = Array.length argv in
  let pending = Array.make n false in
  if recv && c.c_entry.(0) <> Boxed then pending.(0) <- true;
  let first = if recv then 1 else 0 in
  let ws =
    Array.init (n - first) (fun k ->
        let w, p = writer c ~this (first + k) argv.(first + k) in
        pending.(first + k) <- p;
        w)
  in
  (ws, conversion c ~this pending)

let fill ws src dst =
  for k = 0 to Array.length ws - 1 do
    (Array.unsafe_get ws k) src dst
  done

(* A frame for a new activation of [c], translating [c] the first time. *)
let rec new_frame t c =
  match c.c_frames with
  | Some p -> Frame.acquire p
  | None ->
      translate t c;
      t.translated <- t.translated + 1;
      new_frame t c

(* Run a filled frame inside the method bracket, converting first; the
   frame goes back to the pool however the activation ends. *)
and enter t c conv fr =
  let cost = t.m.Machine.cost in
  Machine.enter_frame t.m;
  Cost.enter_method cost c.c_label;
  match
    if conv != no_conversion then conv fr;
    c.c_run fr
  with
  | v ->
      Cost.leave_method cost;
      Machine.leave_frame t.m;
      Frame.release (Option.get c.c_frames) fr;
      v
  | exception e ->
      Cost.leave_method cost;
      Machine.leave_frame t.m;
      Frame.release (Option.get c.c_frames) fr;
      raise e

(* The generic path: evaluated arguments, any target. *)
and apply t target ~this args =
  match target with
  | Link.Native f ->
      let l = Array.to_list args in
      if this then f (List.hd l) (List.tl l) else f Value.Null l
  | Link.Code c ->
      if Array.length args <> Array.length c.c_decl + Bool.to_int this
      then begin
        (* found when the callee's frame is built, inside its bracket *)
        Machine.enter_frame t.m;
        Cost.enter_method t.m.Machine.cost c.c_label;
        Cost.leave_method t.m.Machine.cost;
        Machine.leave_frame t.m;
        fail "jit: arity mismatch calling %s" c.c_label
      end;
      let fr = new_frame t c in
      let conv fr =
        Array.iteri
          (fun j v -> unbox c.c_entry.(j) fr j (widen (param_of c ~this j) v))
          args
      in
      enter t c conv fr

and invoke_virtual t recv mname args =
  let heap = t.m.Machine.heap in
  let cls = Heap.object_class heap (Heap.deref heap recv) in
  apply t (Link.target t.link cls mname) ~this:true
    (Array.append [| recv |] args)

(* ---- translation -------------------------------------------------- *)

and translate t c =
  let mc = c.c_mc and v = Option.get c.c_verified in
  c.c_verified <- None;
  let blocks, ntemps = build v mc in
  let blocks = prune blocks in
  let nloc = Verify.frame_locals v in
  let ncanon = Verify.max_stack v in
  let ret = nloc + ncanon + ntemps in
  let size = ret + 1 in
  let ctx =
    { t; locs = Instr.expand_lines mc; canon0 = nloc; temp0 = nloc + ncanon;
      edges0 = size; acc = size; scratch0 = size; scratch = 0 }
  in
  let code =
    Array.map
      (function
        | None -> fun _ -> fail "jit: unreachable block entered"
        | Some blk -> block ctx mc ~ret blk)
      blocks
  in
  c.c_run <-
    (match blocks with
    | [| Some { term = Return _; _ } |] ->
        let b0 = code.(0) in
        fun fr ->
          ignore (b0 fr);
          Array.unsafe_get fr.v ret
    | _ ->
        fun fr ->
          let b = ref 0 in
          while !b >= 0 do
            b := (Array.unsafe_get code !b) fr
          done;
          Array.unsafe_get fr.v ret);
  c.c_frames <-
    Some
      (Frame.pool ~ints:size ~doubles:(size + 1) ~values:(size + ctx.scratch)
         ~edges:(Verify.back_edges v))

and block ctx mc ~ret blk =
  let cost = ctx.t.m.Machine.cost in
  (* a back edge notes the meter in its slots of the int lane *)
  let take e k =
    if e < 0 then fun _ -> k
    else
      let slot = Frame.edge_slot ~ints:ctx.edges0 e in
      fun fr ->
        Cost.back_edge cost fr.i slot;
        k
  in
  let term =
    match blk.term with
    | Goto (i, e) -> take e i
    | Branch (c, yes, no, e) ->
        let f = cb ctx c and no = take e no in
        fun fr -> if f fr then yes else no fr
    | Return None ->
        fun fr ->
          Array.unsafe_set fr.v ret Value.Null;
          -1
    | Return (Some e) ->
        let f = cv ctx e and ty = mc.Instr.mc_ret in
        fun fr ->
          Array.unsafe_set fr.v ret (Machine.coerce ty (f fr));
          -1
  in
  (* the statements run from one loop, not a chain of closures *)
  match Array.of_list (List.map (stmt ctx) blk.stmts) with
  | [||] -> term
  | [| s0 |] ->
      fun fr ->
        s0 fr;
        term fr
  | stmts ->
      fun fr ->
        for k = 0 to Array.length stmts - 1 do
          (Array.unsafe_get stmts k) fr
        done;
        term fr

and stmt ctx = function
  | Set (s, ty, e) -> (
      let k = index ctx s in
      match ty with
      | Int ->
          let f = ci ctx e in
          fun fr -> Array.unsafe_set fr.i k (f fr)
      | Bool ->
          let f = cb ctx e in
          fun fr -> Array.unsafe_set fr.i k (Bool.to_int (f fr))
      | Double ->
          let f = cd ctx e and acc = ctx.acc in
          fun fr ->
            f fr;
            Float.Array.unsafe_set fr.d k (acc_get fr acc)
      | Boxed ->
          let f = cv ctx e in
          fun fr -> Array.unsafe_set fr.v k (f fr))
  | Drop e ->
      let f = cv ctx e in
      fun fr -> ignore (f fr)
  | Yield pc ->
      let cost = ctx.t.m.Machine.cost and loc = ctx.locs.(pc) in
      fun _ ->
        Cost.at_line cost loc;
        Threads.maybe_yield ()

and iop ctx e =
  match e with
  | Slot (s, Int) -> I_slot (index ctx s)
  | Const (Value.Int k) -> I_const k
  | _ -> I_tree (ci ctx e)

and vop ctx e =
  match e with Slot (s, Boxed) -> V_slot (index ctx s) | _ -> V_tree (cv ctx e)

(* A double operator's operand, into the accumulator, and [-1]; one of
   unknown type also keeps its value in a scratch slot of the value lane
   (the second result), for [late_check] once the operator has charged. *)
and double_operand ctx e =
  match ety e with
  | Boxed ->
      let f = cv ctx e and acc = ctx.acc and k = ctx.scratch0 + ctx.scratch in
      ctx.scratch <- ctx.scratch + 1;
      ( (fun fr ->
          let v = f fr in
          Array.unsafe_set fr.v k v;
          match v with
          | Value.Double d -> acc_set fr acc d
          | Value.Int n -> acc_set fr acc (float_of_int n)
          | _ -> ()),
        k )
  | _ -> (cd ctx e, -1)

(* A tree in its own lane. *)
and arg ctx e =
  match (e, ety e) with
  | Slot (s, ty), _ -> A_slot (ty, index ctx s)
  | _, Int -> A_int (ci ctx e)
  | _, Bool -> A_bool (cb ctx e)
  | _, Double -> A_double (cd ctx e, ctx.acc)
  | _, Boxed -> A_value (cv ctx e)

(* Boxed value of any tree. *)
and cv ctx e : frame -> Value.t =
  match e with
  | Const v -> fun _ -> v
  | Slot (s, Boxed) ->
      let k = index ctx s in
      fun fr -> Array.unsafe_get fr.v k
  | Node (pc, n) when ety e = Boxed -> value_node ctx pc n
  | _ -> boxed (arg ctx e)

and ci ctx e : frame -> int =
  match e with
  | Const (Value.Int k) -> fun _ -> k
  | Slot (s, Int) ->
      let k = index ctx s in
      fun fr -> Array.unsafe_get fr.i k
  | Node (pc, n) when ety e = Int -> int_node ctx pc n
  | _ ->
      let f = cv ctx e in
      fun fr -> to_int (f fr)

and cd ctx e : frame -> unit =
  let acc = ctx.acc in
  match e with
  | Const (Value.Double x) -> fun fr -> acc_set fr acc x
  | Const (Value.Int k) ->
      let x = float_of_int k in
      fun fr -> acc_set fr acc x
  | Slot (s, Double) ->
      let k = index ctx s in
      fun fr -> acc_set fr acc (Float.Array.unsafe_get fr.d k)
  | Slot (s, Int) ->
      let k = index ctx s in
      fun fr -> acc_set fr acc (float_of_int (Array.unsafe_get fr.i k))
  | Node (pc, n) when ety e = Double -> double_node ctx pc n
  | Node _ when ety e = Int ->
      let f = ci ctx e in
      fun fr -> acc_set fr acc (float_of_int (f fr))
  | _ ->
      let f = cv ctx e in
      fun fr -> acc_set fr acc (to_double (f fr))

and cb ctx e : frame -> bool =
  match e with
  | Const (Value.Bool x) -> fun _ -> x
  | Slot (s, Bool) ->
      let k = index ctx s in
      fun fr -> Array.unsafe_get fr.i k <> 0
  | Node (pc, n) when ety e = Bool -> bool_node ctx pc n
  | _ ->
      let f = cv ctx e in
      fun fr -> to_bool (f fr)

(* Binary operators charge after both operands, as the instruction
   follows them; the commonest ones on unboxed operands get their own
   closure. An operand of unknown type is evaluated boxed and unboxed
   only once the operator has charged, the right one first, where the
   VM checks it. *)
and int_binary : 'a. ctx -> int -> expr -> expr -> (int -> int -> 'a) -> frame -> 'a =
 fun ctx pc x y k ->
  let cost, loc, ka = at ctx pc in
  match (ety x, ety y) with
  | Boxed, Boxed ->
      let x = cv ctx x and y = cv ctx y in
      fun fr ->
        let a = x fr in
        let b = y fr in
        arith cost loc ka;
        let b = to_int b in
        k (to_int a) b
  | Boxed, _ ->
      let x = cv ctx x and y = ci ctx y in
      fun fr ->
        let a = x fr in
        let b = y fr in
        arith cost loc ka;
        k (to_int a) b
  | _, Boxed ->
      let x = ci ctx x and y = cv ctx y in
      fun fr ->
        let a = x fr in
        let b = y fr in
        arith cost loc ka;
        k a (to_int b)
  | _ ->
      let x = ci ctx x and y = ci ctx y in
      fun fr ->
        let a = x fr in
        let b = y fr in
        arith cost loc ka;
        k a b

and int_node ctx pc n : frame -> int =
  let w = Value.wrap32 in
  match n with
  | Iop (op, x, y) -> (
      match (ety x, ety y) with
      | Int, Int -> (
          let x = iop ctx x and y = iop ctx y and cost, loc, ka = at ctx pc in
          match op with
          | Add ->
              fun fr ->
                let a = iget x fr in
                let b = iget y fr in
                arith cost loc ka;
                w (a + b)
          | Sub ->
              fun fr ->
                let a = iget x fr in
                let b = iget y fr in
                arith cost loc ka;
                w (a - b)
          | Mul ->
              fun fr ->
                let a = iget x fr in
                let b = iget y fr in
                arith cost loc ka;
                w (a * b)
          | _ ->
              fun fr ->
                let a = iget x fr in
                let b = iget y fr in
                arith cost loc ka;
                Machine.int_arith op a b)
      | _ -> int_binary ctx pc x y (Machine.int_arith op))
  | Ineg x ->
      let x = ci ctx x in
      fun fr -> w (-x fr)
  | D2i x ->
      let x = cd ctx x and acc = ctx.acc in
      fun fr ->
        x fr;
        Value.d2i (acc_get fr acc)
  | Alen a ->
      let a = cv ctx a and heap = ctx.t.m.Machine.heap in
      fun fr -> Heap.array_length heap (Heap.deref heap (a fr))
  | _ -> assert false

and double_node ctx pc n : frame -> unit =
  let acc = ctx.acc in
  match n with
  | Dop (op, x, y) -> (
      let cost, loc, ka = at ctx pc in
      let x, kx = double_operand ctx x and y, ky = double_operand ctx y in
      (* spelled out per operator so no float crosses a call *)
      match op with
          | Add ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                acc_set fr acc (a +. b)
          | Sub ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                acc_set fr acc (a -. b)
          | Mul ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                acc_set fr acc (a *. b)
          | Div ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                acc_set fr acc (a /. b)
          | _ ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                acc_set fr acc (Machine.double_arith op a b))
  | Dneg x ->
      let x = cd ctx x in
      fun fr ->
        x fr;
        acc_set fr acc (-.acc_get fr acc)
  | I2d x -> cd ctx x
  | _ -> assert false

and bool_node ctx pc n : frame -> bool =
  match n with
  | Iop (op, x, y) -> (
      match (ety x, ety y) with
      | Int, Int -> (
          let x = iop ctx x and y = iop ctx y and cost, loc, ka = at ctx pc in
          match op with
          | Lt ->
              fun fr ->
                let a = iget x fr in
                let b = iget y fr in
                arith cost loc ka;
                a < b
          | Gt ->
              fun fr ->
                let a = iget x fr in
                let b = iget y fr in
                arith cost loc ka;
                a > b
          | Le ->
              fun fr ->
                let a = iget x fr in
                let b = iget y fr in
                arith cost loc ka;
                a <= b
          | Ge ->
              fun fr ->
                let a = iget x fr in
                let b = iget y fr in
                arith cost loc ka;
                a >= b
          | Eq ->
              fun fr ->
                let a = iget x fr in
                let b = iget y fr in
                arith cost loc ka;
                a = b
          | _ ->
              fun fr ->
                let a = iget x fr in
                let b = iget y fr in
                arith cost loc ka;
                Machine.int_compare op a b)
      | _ -> int_binary ctx pc x y (Machine.int_compare op))
  | Dop (op, x, y) -> (
      let cost, loc, ka = at ctx pc and acc = ctx.acc in
      let x, kx = double_operand ctx x and y, ky = double_operand ctx y in
      match op with
          | Lt ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                a < b
          | Gt ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                a > b
          | Le ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                a <= b
          | Ge ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                a >= b
          | Eq ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                Float.equal a b
          | Neq ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                not (Float.equal a b)
          | _ ->
              fun fr ->
                x fr;
                let a = acc_get fr acc in
                y fr;
                let b = acc_get fr acc in
                arith cost loc ka;
                if ky >= 0 then late_check fr ky;
                if kx >= 0 then late_check fr kx;
                Machine.double_compare op a b)
  | Veq (positive, x, y) -> (
      match (ety x, ety y) with
      | Int, Int ->
          let x = ci ctx x and y = ci ctx y in
          fun fr ->
            let a = x fr in
            let b = y fr in
            a = b = positive
      | Bool, Bool ->
          let x = cb ctx x and y = cb ctx y in
          fun fr ->
            let a = x fr in
            let b = y fr in
            a = b = positive
      | _ ->
          let x = cv ctx x and y = cv ctx y in
          fun fr ->
            let a = x fr in
            let b = y fr in
            Value.equal a b = positive)
  | Bnot x ->
      let x = cb ctx x in
      fun fr -> not (x fr)
  | _ -> assert false

and value_node ctx pc n : frame -> Value.t =
  let t = ctx.t in
  let m = t.m in
  let cost = m.Machine.cost and heap = m.Machine.heap in
  let loc = ctx.locs.(pc) and kfield = (Cost.tariff cost).Cost.field in
  match n with
  | Get_field (f, o) ->
      let site = Heap.field_site f and o = vop ctx o in
      fun fr ->
        let r = vget o fr in
        Cost.charge_at cost loc kfield;
        Heap.get_field_at heap (Heap.deref heap r) site
  | Put_field (f, o, v) ->
      let site = Heap.field_site f and o = cv ctx o and v = cv ctx v in
      fun fr ->
        let r = o fr in
        let x = v fr in
        Cost.charge_at cost loc kfield;
        Heap.set_field_at heap (Heap.deref heap r) site x;
        x
  | Get_static (cls, f) ->
      let cell = Machine.static_cell m cls f in
      let note = Printf.sprintf "read %s.%s" cls f in
      fun _ ->
        Cost.charge_at cost loc kfield;
        if Threads.active () then Threads.note note;
        (match cell with Some c -> !c | None -> Machine.static_get m cls f)
  | Put_static (cls, f, v) ->
      let cell = Machine.static_cell m cls f and v = cv ctx v in
      fun fr ->
        let x = v fr in
        Cost.charge_at cost loc kfield;
        if Threads.active () then
          Threads.note
            (Printf.sprintf "write %s.%s = %s" cls f (Value.to_display x));
        (match cell with
        | Some c -> c := x
        | None -> Machine.static_set m cls f x);
        x
  | Aload (checked, a, i) -> (
      let a = vop ctx a in
      let k =
        let tr = Cost.tariff cost in
        if checked then tr.Cost.array else tr.Cost.array_unchecked
      in
      let charge () = Cost.charge_at cost loc k in
      let read r k =
        let r = Heap.deref heap r in
        if checked then Heap.array_get heap r k
        else Heap.array_get_unchecked heap r k
      in
      match ety i with
      | Boxed ->
          let i = cv ctx i in
          fun fr ->
            let r = vget a fr in
            let k = i fr in
            charge ();
            let k = to_int k in
            read r k
      | _ ->
          let i = iop ctx i in
          fun fr ->
            let r = vget a fr in
            let k = iget i fr in
            charge ();
            read r k)
  | Astore (checked, a, i, v) -> (
      let a = vop ctx a and v = cv ctx v in
      let k =
        let tr = Cost.tariff cost in
        if checked then tr.Cost.array else tr.Cost.array_unchecked
      in
      let charge () = Cost.charge_at cost loc k in
      match ety i with
      | Boxed ->
          let i = cv ctx i in
          fun fr ->
            let r = vget a fr in
            let k = i fr in
            let x = v fr in
            charge ();
            let k = to_int k in
            Machine.array_store m (Heap.deref heap r) k x ~checked
      | _ ->
          let i = iop ctx i in
          fun fr ->
            let r = vget a fr in
            let k = iget i fr in
            let x = v fr in
            charge ();
            Machine.array_store m (Heap.deref heap r) k x ~checked)
  | New_array (elem, k) ->
      let k = ci ctx k in
      fun fr ->
        let len = k fr in
        Cost.at_line cost loc;
        Machine.alloc_array m elem len
  | New_multi (elem, dims) ->
      (* every dimension is evaluated before any is checked *)
      let dims = Array.of_list (List.map (cv ctx) dims) in
      fun fr ->
        let rec eval i =
          if i = Array.length dims then []
          else
            let d = dims.(i) fr in
            d :: eval (i + 1)
        in
        let ds = List.map to_int (eval 0) in
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
  let kcall = (Cost.tariff cost).Cost.call in
  let charge () = Cost.charge_at cost loc kcall in
  let args = Array.of_list (List.map (arg ctx) args) in
  let argv = Array.map boxed args in
  let this = match call with Static _ -> false | _ -> true in
  let fits c = Array.length argv = Array.length c.c_decl + Bool.to_int this in
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
              let ws, conv = passing c ~this ~recv:false args in
              fun fr ->
                let nf = new_frame t c in
                fill ws fr nf;
                charge ();
                enter t c conv nf
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
          let ws, conv = passing c ~this ~recv:true args in
          fun fr ->
            let nf = new_frame t c in
            fill ws fr nf;
            Cost.at_line cost loc;
            let obj = Machine.alloc_instance m cls in
            Array.unsafe_set nf.v 0 obj;
            ignore (enter t c conv nf);
            obj
      | exception Heap.Runtime_error msg ->
          fun fr ->
            ignore (eval_array argv fr);
            Cost.at_line cost loc;
            ignore (Machine.alloc_instance m cls);
            raise (Heap.Runtime_error msg))
  | Virtual mname ->
      (* Monomorphic inline cache: the receiver layout last seen here,
         what it resolved to, and how the arguments reach its frame. *)
      let seen = ref None in
      let heap = m.Machine.heap in
      let same_layout r l =
        match r with
        | Value.Ref i -> (
            match Heap.get heap i with
            | Heap.Object { layout; _ } -> layout == l
            | Heap.Arr _ -> false
            | exception Heap.Runtime_error _ -> false)
        | _ -> false
      in
      let generic fr tg r =
        let a = eval_array argv fr ~first:1 ~init:r in
        charge ();
        apply t tg ~this a
      in
      let slow fr r =
        let resolved =
          match r with
          | Value.Ref i -> (
              match Heap.get heap i with
              | Heap.Object { layout; _ } -> (
                  match Link.target t.link layout.Heap.l_cls mname with
                  | tg ->
                      let pass =
                        match tg with
                        | Link.Code c when fits c ->
                            Some (c, passing c ~this ~recv:true args)
                        | _ -> None
                      in
                      seen := Some (layout, tg, pass);
                      Some tg
                  | exception Heap.Runtime_error _ -> None)
              | Heap.Arr _ -> None
              | exception Heap.Runtime_error _ -> None)
          | _ -> None
        in
        match resolved with
        | Some tg -> generic fr tg r
        | None ->
            (* not an object, or no such method: fail as the bytecode does *)
            let a = eval_array argv fr ~first:1 in
            charge ();
            invoke_virtual t r mname (Array.sub a 1 (Array.length a - 1))
      in
      fun fr ->
        let r = argv.(0) fr in
        match !seen with
        | Some (l, _, Some (c, (ws, conv))) when same_layout r l ->
            let nf = new_frame t c in
            Array.unsafe_set nf.v 0 r;
            fill ws fr nf;
            charge ();
            enter t c conv nf
        | Some (l, tg, None) when same_layout r l -> generic fr tg r
        | _ -> slow fr r

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let shell ~this (mc : Instr.method_code) =
  let v = Verify.verify ~this mc in
  { c_label = mc.Instr.mc_class ^ "." ^ mc.Instr.mc_name;
    c_mc = mc;
    c_verified = Some v;
    c_decl = Array.of_list mc.Instr.mc_params;
    c_entry = Array.init (Verify.frame_locals v) (Verify.slot v 0);
    c_run = (fun _ -> fail "jit: %s run before translation" mc.Instr.mc_name);
    c_frames = None }

let call t recv mname args = invoke_virtual t recv mname (Array.of_list args)

let call_static t cls mname args =
  apply t (Link.target t.link cls mname) ~this:false (Array.of_list args)

let new_instance t cls args =
  let obj = Machine.alloc_instance t.m cls in
  let c = Link.ctor t.link cls (List.length args) in
  ignore (apply t (Link.Code c) ~this:true (Array.of_list (obj :: args)));
  obj

let run_main t cls = ignore (call_static t cls "main" [])

let start ?profile ?lines image =
  let m =
    Machine.create ~tariff:Cost.jit_tariff ?profile ?lines image.Compile.im_tab
  in
  let t = { m; link = Link.create image m ~load:shell; translated = 0 } in
  m.Machine.invoke_run <- (fun recv -> ignore (call t recv "run" []));
  let clinit = shell ~this:false image.Compile.im_static_init in
  translate t clinit;
  ignore (enter t clinit no_conversion (new_frame t clinit));
  t

let of_image ?profile image = start ?profile image

let create ?profile ?lines ?elide checked =
  start ?profile ?lines (Compile.compile ?elide checked)
