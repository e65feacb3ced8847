module Value = Mj_runtime.Value

type ty = Int | Bool | Double | Boxed

type t = {
  code : Instr.t array;
  nloc : int;
  max_stack : int;
  depth : int array;
  soff : int array;  (* where each reachable pc's operand types start in [stys] *)
  stys : Bytes.t;  (* the operand stack's types before every reachable pc *)
  ltys : Bytes.t;  (* per pc: the type of the local a [Load] reads *)
  etys : Bytes.t;  (* the locals' types on entry *)
  edge : int array;
  nback : int;
}

let fail = Mj_runtime.Machine.fail

let frame_locals v = v.nloc

let max_stack v = v.max_stack

let depth v pc = v.depth.(pc)

let ty_of_code = function '\000' -> Int | '\001' -> Bool | '\002' -> Double | _ -> Boxed

let slot v pc i =
  if i >= v.nloc then ty_of_code (Bytes.get v.stys (v.soff.(pc) + i - v.nloc))
  else
    match v.code.(pc) with
    | Instr.Load l when l = i -> ty_of_code (Bytes.get v.ltys pc)
    | _ when pc = 0 -> ty_of_code (Bytes.get v.etys i)
    | _ -> invalid_arg "Verify.slot: a local is typed on entry and where it is loaded"

let top v pc k = slot v pc (v.nloc + v.depth.(pc) - 1 - k)

let result v pc = top v (pc + 1) 0

let back_edges v = v.nback

let back_edge v pc = v.edge.(pc)

let ty_name = function
  | Int -> "int"
  | Bool -> "boolean"
  | Double -> "double"
  | Boxed -> "boxed value"

(* ---- the depth pass ------------------------------------------------- *)

(* Operand-stack entries an instruction pops, and pushes. *)
let pops : Instr.t -> int = function
  | Instr.Const _ | Instr.Load _ | Instr.Get_static _ | Instr.Jump _ | Instr.Ret
  | Instr.Yield_point ->
      0
  | Instr.Store _ | Instr.Jump_if_false _ | Instr.Pop | Instr.Ret_val
  | Instr.Get_field _ | Instr.Put_static _ | Instr.Array_len | Instr.New_array _
  | Instr.Ineg | Instr.Dneg | Instr.Bnot | Instr.I2d | Instr.D2i
  | Instr.Checkcast _ | Instr.Coerce _ | Instr.Dup ->
      1
  | Instr.Put_field _ | Instr.Array_load | Instr.Aload_u | Instr.Iop _
  | Instr.Dop _ | Instr.Veq _ | Instr.Sconcat | Instr.Dup2 | Instr.Dup_x1 ->
      2
  | Instr.Array_store | Instr.Astore_u | Instr.Dup_x2 -> 3
  | Instr.New_object (_, k) | Instr.New_multi (_, k) | Instr.Invoke_static (_, _, k)
    ->
      k
  | Instr.Invoke_virtual (_, k) | Instr.Invoke_special (_, _, k)
  | Instr.Invoke_ctor (_, k) ->
      k + 1

let pushes : Instr.t -> int = function
  | Instr.Jump _ | Instr.Ret | Instr.Yield_point | Instr.Store _
  | Instr.Jump_if_false _ | Instr.Pop | Instr.Ret_val | Instr.Invoke_ctor _ ->
      0
  | Instr.Dup -> 2
  | Instr.Dup_x1 -> 3
  | Instr.Dup2 | Instr.Dup_x2 -> 4
  | _ -> 1

(* Where control goes after [pc]: the next instruction unless the
   instruction jumps or returns, and a jump's target; [-1] for none. *)
let falls_to pc = function
  | Instr.Jump _ | Instr.Ret | Instr.Ret_val -> -1
  | _ -> pc + 1

let jumps_to = function
  | Instr.Jump target | Instr.Jump_if_false target -> target
  | _ -> -1

(* Depths before every reachable pc, worklist from pc 0. *)
let depths (mc : Instr.method_code) where =
  let code = mc.Instr.mc_code in
  let n = Array.length code in
  let depth = Array.make n (-1) in
  let deepest = ref 0 in
  let work = Array.make (max 1 n) 0 and top = ref 0 in
  let reach from pc d =
    if pc < 0 || pc > n then
      fail "verify: jump target %d out of range at pc %d in %s" pc from (where ())
    else if pc = n then fail "verify: %s falls off its code" (where ())
    else if depth.(pc) < 0 then begin
      depth.(pc) <- d;
      work.(!top) <- pc;
      incr top
    end
    else if depth.(pc) <> d then
      fail "verify: stack depths %d and %d meet at pc %d in %s" depth.(pc) d
        pc (where ())
  in
  reach 0 0 0;
  while !top > 0 do
    decr top;
    let pc = work.(!top) in
    let d = depth.(pc) in
    let popped = pops code.(pc) in
    if d < popped then fail "verify: operand stack underflow at pc %d in %s" pc (where ());
    let d' = d - popped + pushes code.(pc) in
    deepest := max !deepest d';
    (match code.(pc) with
    | Instr.Load s | Instr.Store s when s < 0 || s >= mc.Instr.mc_nlocals ->
        fail "verify: local slot %d out of range at pc %d in %s" s pc (where ())
    | _ -> ());
    let next = falls_to pc code.(pc) and target = jumps_to code.(pc) in
    if next >= 0 then reach pc next d';
    if target >= 0 then reach pc target d'
  done;
  (depth, !deepest)

(* ---- liveness of locals -------------------------------------------- *)

(* A local is live at a block's start when some path from there reads it
   before writing it. Blocks are the reachable runs between [leader]s;
   one bit per local, [w] words per block start. *)
let bits = 62

let liveness (code : Instr.t array) depth leader nloc =
  let n = Array.length code in
  let w = (nloc + bits - 1) / bits in
  let starts =
    List.filter (fun pc -> leader.(pc) && depth.(pc) >= 0) (List.init n Fun.id)
    |> Array.of_list
  in
  let nb = Array.length starts in
  let block = Array.make (n + 1) (-1) in
  Array.iteri (fun b pc -> block.(pc) <- b) starts;
  (* each block's locals read before written ([gen]), written ([kill]),
     and the blocks it may pass control to *)
  let gen = Array.make (max 1 (nb * w)) 0 and kill = Array.make (max 1 (nb * w)) 0 in
  let succ = Array.make (max 1 (2 * nb)) (-1) in
  Array.iteri
    (fun b start ->
      let pc = ref start and go = ref true in
      while !go do
        let instr = code.(!pc) in
        (match instr with
        | Instr.Load l ->
            let k = (b * w) + (l / bits) and m = 1 lsl (l mod bits) in
            if kill.(k) land m = 0 then gen.(k) <- gen.(k) lor m
        | Instr.Store l ->
            let k = (b * w) + (l / bits) in
            kill.(k) <- kill.(k) lor (1 lsl (l mod bits))
        | _ -> ());
        let next = falls_to !pc instr and target = jumps_to instr in
        if target >= 0 then succ.(2 * b) <- block.(target);
        if next < 0 || leader.(next) then begin
          if next >= 0 then succ.((2 * b) + 1) <- block.(next);
          go := false
        end
        else pc := next
      done)
    starts;
  let live = Array.make (max 1 (nb * w)) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      for k = 0 to w - 1 do
        let word s = if s < 0 then 0 else live.((s * w) + k) in
        let out = word succ.(2 * b) lor word succ.((2 * b) + 1) in
        let v = gen.((b * w) + k) lor (out land lnot kill.((b * w) + k)) in
        if v <> live.((b * w) + k) then begin
          live.((b * w) + k) <- v;
          changed := true
        end
      done
    done
  done;
  fun start l ->
    live.((block.(start) * w) + (l / bits)) land (1 lsl (l mod bits)) <> 0

(* ---- webs ------------------------------------------------------------ *)

(* Every slot at every reachable pc is a node; nodes holding copies of the
   same value are joined, and each web collects the types of the values
   that enter it. *)
let m_int = 1
let m_bool = 2
let m_double = 4
let m_boxed = 8
let m_unset = 16  (* a local nothing has written yet *)

let mask_of_decl : Mj.Ast.ty -> int = function
  | Mj.Ast.TInt -> m_int
  | Mj.Ast.TBool -> m_bool
  | Mj.Ast.TDouble -> m_double
  | _ -> m_boxed

let mask_of_const : Value.t -> int = function
  | Value.Int _ -> m_int
  | Value.Bool _ -> m_bool
  | Value.Double _ -> m_double
  | _ -> m_boxed

let code_of_mask m =
  match m land 15 with
  | 1 -> '\000'
  | 2 -> '\001'
  | 4 -> '\002'
  | _ -> '\003'

(* The type of the value an instruction computes; [0] for the moves,
   which copy their operands instead. *)
let produced : Instr.t -> int = function
  | Instr.Const v -> mask_of_const v
  | Instr.Iop op -> if Mj_runtime.Machine.is_compare op then m_bool else m_int
  | Instr.Dop op -> if Mj_runtime.Machine.is_compare op then m_bool else m_double
  | Instr.Veq _ | Instr.Bnot -> m_bool
  | Instr.Ineg | Instr.D2i | Instr.Array_len -> m_int
  | Instr.Dneg | Instr.I2d -> m_double
  | Instr.Coerce Mj.Ast.TDouble -> m_boxed
  | Instr.Load _ | Instr.Store _ | Instr.Dup | Instr.Dup2 | Instr.Dup_x1
  | Instr.Dup_x2 | Instr.Checkcast _ | Instr.Coerce _ ->
      0
  | _ -> m_boxed

(* Where each entry an instruction pushes comes from: [i >= 0] copies
   the [i]th popped entry (bottom first), [-1] is a new value. *)
let copies_dup = [| 0; 0 |]
let copies_dup2 = [| 0; 1; 0; 1 |]
let copies_dup_x1 = [| 1; 0; 1 |]
let copies_dup_x2 = [| 2; 0; 1; 2 |]
let copies_move = [| 0 |]
let fresh_none = [||]
let fresh_one = [| -1 |]

let sources : Instr.t -> int array = function
  | Instr.Dup -> copies_dup
  | Instr.Dup2 -> copies_dup2
  | Instr.Dup_x1 -> copies_dup_x1
  | Instr.Dup_x2 -> copies_dup_x2
  | Instr.Checkcast _ -> copies_move
  | Instr.Coerce ty when ty <> Mj.Ast.TDouble -> copies_move
  | instr -> if pushes instr = 0 then fresh_none else fresh_one

(* ---- operand types --------------------------------------------------- *)

type want = W_int | W_double | W_bool | W_num | W_ref | W_any

let want_name = function
  | W_int -> "int"
  | W_double -> "double"
  | W_bool -> "boolean"
  | W_num -> "numeric"
  | W_ref -> "reference"
  | W_any -> "any"

let accepts want ty =
  match (want, ty) with
  | W_any, _ | _, Boxed -> true
  | W_int, Int | W_double, Double | W_bool, Bool -> true
  | W_num, (Int | Double) -> true
  | (W_int | W_double | W_bool | W_num | W_ref), _ -> false

(* What each operand must be, bottom first. *)
let wants : Instr.t -> want list = function
  | Instr.Get_field _ | Instr.Array_len -> [ W_ref ]
  | Instr.Put_field _ -> [ W_ref; W_any ]
  | Instr.Array_load | Instr.Aload_u -> [ W_ref; W_int ]
  | Instr.Array_store | Instr.Astore_u -> [ W_ref; W_int; W_any ]
  | Instr.New_array _ | Instr.Ineg -> [ W_int ]
  | Instr.New_multi (_, k) -> List.init k (fun _ -> W_int)
  | Instr.Iop _ -> [ W_int; W_int ]
  | Instr.Dop _ -> [ W_double; W_double ]
  | Instr.Dneg | Instr.D2i -> [ W_double ]
  | Instr.I2d -> [ W_num ]
  | Instr.Bnot | Instr.Jump_if_false _ -> [ W_bool ]
  | Instr.Invoke_virtual (_, k) | Instr.Invoke_special (_, _, k)
  | Instr.Invoke_ctor (_, k) ->
      W_ref :: List.init k (fun _ -> W_any)
  | _ -> []

(* ---- the pass -------------------------------------------------------- *)

(* Each block is simulated once with the web of every local and operand
   entry in hand: a copy reuses its source's web, a computed value gets
   a new one. Where control crosses an edge the webs of the live locals
   and of the operand entries are joined to those the successor starts
   from. *)
let max_locals = 65_535

let verify ~this (mc : Instr.method_code) =
  let where () = mc.Instr.mc_class ^ "." ^ mc.Instr.mc_name in
  if mc.Instr.mc_nlocals > max_locals then
    fail "verify: %s declares %d locals, more than %d" (where ())
      mc.Instr.mc_nlocals max_locals;
  let code = mc.Instr.mc_code in
  let n = Array.length code in
  let depth, max_stack = depths mc where in
  let params = mc.Instr.mc_params in
  let nloc = max mc.Instr.mc_nlocals (1 + List.length params) in
  let leader = Array.make (n + 1) false in
  leader.(0) <- true;
  let soff = Array.make n (-1) in
  let nstack = ref 0 and nentry = ref 0 in
  for pc = 0 to n - 1 do
    if depth.(pc) >= 0 then begin
      soff.(pc) <- !nstack;
      nstack := !nstack + depth.(pc);
      match code.(pc) with
      | Instr.Jump t | Instr.Jump_if_false t ->
          leader.(t) <- true;
          leader.(pc + 1) <- true
      | Instr.Ret | Instr.Ret_val -> leader.(pc + 1) <- true
      | _ -> ()
    end
  done;
  let live = liveness code depth leader nloc in
  (* webs: the entry slots of every block, then one per computed value *)
  let entry = Array.make n (-1) in
  for pc = 0 to n - 1 do
    if leader.(pc) && depth.(pc) >= 0 then begin
      entry.(pc) <- !nentry;
      nentry := !nentry + nloc + depth.(pc)
    end
  done;
  let nwebs = !nentry + n in
  let parent = Array.make nwebs 0 in
  for w = 0 to nwebs - 1 do
    parent.(w) <- w
  done;
  let mask = Array.make nwebs 0 in
  let rec find i =
    let p = Array.unsafe_get parent i in
    if p = i then i
    else begin
      let r = find p in
      Array.unsafe_set parent i r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then begin
      parent.(ra) <- rb;
      mask.(rb) <- mask.(rb) lor mask.(ra)
    end
  in
  let fresh = ref !nentry in
  let enter i m =
    let r = find i in
    mask.(r) <- mask.(r) lor m
  in
  (* pc 0: the receiver, the parameters, and locals nothing wrote yet *)
  let first = if this then 1 else 0 in
  for l = 0 to nloc - 1 do
    enter l (if this && l = 0 then m_boxed else m_unset)
  done;
  List.iteri (fun i ty -> mask.(first + i) <- mask_of_decl ty) params;
  let snodes = Array.make (max 1 !nstack) 0 in
  let lnodes = Array.make n (-1) in
  let locals = Array.make nloc 0 in
  let stack = Array.make (max 1 max_stack) 0 in
  let sp = ref 0 in
  let edge s =
    let base = entry.(s) in
    for l = 0 to nloc - 1 do
      if live s l then union locals.(l) (base + l)
    done;
    for i = 0 to !sp - 1 do
      union stack.(i) (base + nloc + i)
    done
  in
  let popped = Array.make 4 0 in
  for start = 0 to n - 1 do
    if entry.(start) >= 0 then begin
      let base = entry.(start) in
      for l = 0 to nloc - 1 do
        locals.(l) <- base + l
      done;
      sp := depth.(start);
      for i = 0 to !sp - 1 do
        stack.(i) <- base + nloc + i
      done;
      let pc = ref start and go = ref true in
      while !go do
        let at = !pc in
        let instr = code.(at) in
        let base = soff.(at) in
        for i = 0 to !sp - 1 do
          snodes.(base + i) <- stack.(i)
        done;
        (match instr with
        | Instr.Load l ->
            lnodes.(at) <- locals.(l);
            stack.(!sp) <- locals.(l);
            incr sp
        | Instr.Store l ->
            decr sp;
            locals.(l) <- stack.(!sp)
        | _ ->
            let k = pops instr in
            sp := !sp - k;
            for i = 0 to min k 4 - 1 do
              popped.(i) <- stack.(!sp + i)
            done;
            let src = sources instr in
            for k = 0 to Array.length src - 1 do
              stack.(!sp) <-
                (if src.(k) >= 0 then popped.(src.(k))
                 else begin
                   let w = !fresh in
                   incr fresh;
                   mask.(w) <- produced instr;
                   w
                 end);
              incr sp
            done);
        let next = falls_to at instr and target = jumps_to instr in
        if target >= 0 then edge target;
        if next >= 0 && leader.(next) then edge next;
        if next < 0 || leader.(next) then go := false else pc := next
      done
    end
  done;
  let ty_of_web w = code_of_mask mask.(find w) in
  let stys = Bytes.init (max 1 !nstack) (fun i -> ty_of_web snodes.(i)) in
  let ltys = Bytes.init n (fun pc -> if lnodes.(pc) < 0 then '\003' else ty_of_web lnodes.(pc)) in
  let etys = Bytes.init nloc (fun l -> ty_of_web l) in
  let v =
    { code; nloc; max_stack; depth; soff; stys; ltys; etys; edge = Array.make n (-1);
      nback = 0 }
  in
  let nback = ref 0 in
  for pc = 0 to n - 1 do
    let d = depth.(pc) in
    if d >= 0 then begin
      let instr = code.(pc) in
      (match instr with
      | Instr.Load l when mask.(find lnodes.(pc)) land m_unset <> 0 ->
          fail "verify: local slot %d may be read before it is written in %s" l
            (where ())
      | Instr.Jump target | Instr.Jump_if_false target when target <= pc ->
          v.edge.(pc) <- !nback;
          incr nback
      | _ -> ());
      let ws = wants instr in
      let k = List.length ws in
      List.iteri
        (fun i want ->
          let ty = slot v pc (nloc + d - k + i) in
          if not (accepts want ty) then
            fail "verify: %s operand expected at pc %d in %s, found %s"
              (want_name want) pc (where ()) (ty_name ty))
        ws
    end
  done;
  { v with nback = !nback }
