type instant = { label : string; mutable subs : instant list }

type t = {
  tab : Mj.Symtab.t;
  heap : Heap.t;
  statics : (string * string, Value.t ref) Hashtbl.t;
  instances : (string, Heap.layout * Value.t array) Hashtbl.t;
  cost : Cost.t;
  console : Buffer.t;
  asr_ports : (int, ports) Hashtbl.t;
  mutable instant_stack : instant list;
  root : instant;
  mutable invoke_run : Value.t -> unit;
  mutable call_depth : int;
  mutable max_call_depth : int;
}

and ports = {
  mutable n_in : int;
  mutable n_out : int;
  mutable inputs : Value.t option array;
  mutable outputs : Value.t option array;
}

let fail fmt = Format.kasprintf (fun m -> raise (Heap.Runtime_error m)) fmt

let create ?(tariff = Cost.interpreter_tariff) ?profile ?lines tab =
  let root = { label = "<root>"; subs = [] } in
  let t =
    { tab; heap = Heap.create (); statics = Hashtbl.create 64;
      instances = Hashtbl.create 16; cost = Cost.create ?profile ?lines tariff;
      console = Buffer.create 256; asr_ports = Hashtbl.create 8;
      instant_stack = [ root ]; root;
      invoke_run = (fun _ -> fail "no engine installed for Thread.start");
      call_depth = 0; max_call_depth = 4096 }
  in
  List.iter
    (fun (cls, f) ->
      Hashtbl.replace t.statics (cls, f.Mj.Ast.f_name)
        (ref (Value.default f.Mj.Ast.f_ty)))
    (Mj.Symtab.static_fields tab);
  Heap.set_gc_hook t.heap (fun ~live_words -> Cost.gc t.cost ~live_words);
  Heap.set_trap_hook t.heap (fun () -> Cost.bounds_trap t.cost);
  t

let enter_frame t =
  t.call_depth <- t.call_depth + 1;
  if t.call_depth > t.max_call_depth then begin
    t.call_depth <- 0;
    fail "stack overflow: call depth exceeded %d frames" t.max_call_depth
  end

let leave_frame t = t.call_depth <- max 0 (t.call_depth - 1)

let as_int = function
  | Value.Int n -> n
  | v -> fail "expected an int, found %s" (Value.to_display v)

let as_double = function
  | Value.Double f -> f
  | Value.Int n -> float_of_int n
  | v -> fail "expected a double, found %s" (Value.to_display v)

let as_bool = function
  | Value.Bool b -> b
  | v -> fail "expected a boolean, found %s" (Value.to_display v)

let[@inline] coerce ty v =
  match (ty, v) with
  | Mj.Ast.TDouble, Value.Int n -> Value.Double (float_of_int n)
  | _, v -> v

let static_cell t cls fname = Hashtbl.find_opt t.statics (cls, fname)

let static_get t cls fname =
  match Hashtbl.find_opt t.statics (cls, fname) with
  | Some c -> !c
  | None -> fail "no static field %s.%s" cls fname

let static_set t cls fname v =
  match Hashtbl.find_opt t.statics (cls, fname) with
  | Some c -> c := v
  | None -> Hashtbl.replace t.statics (cls, fname) (ref v)

(* ----------------------- shared operations ----------------------- *)

let is_compare : Mj.Ast.binop -> bool = function
  | Lt | Gt | Le | Ge | Eq | Neq -> true
  | Add | Sub | Mul | Div | Mod | Band | Bor | Bxor | Shl | Shr | And | Or ->
      false

let int_arith (op : Mj.Ast.binop) x y =
  let w = Value.wrap32 in
  match op with
  | Add -> w (x + y)
  | Sub -> w (x - y)
  | Mul -> w (x * y)
  | Div -> if y = 0 then fail "division by zero" else w (x / y)
  | Mod -> if y = 0 then fail "division by zero" else w (x mod y)
  | Band -> x land y
  | Bor -> x lor y
  | Bxor -> x lxor y
  | Shl -> w (x lsl (y land 31))
  | Shr -> x asr (y land 31)
  | Lt | Gt | Le | Ge | Eq | Neq | And | Or ->
      fail "boolean operator on ints"

let int_compare (op : Mj.Ast.binop) (x : int) y =
  match op with
  | Lt -> x < y
  | Gt -> x > y
  | Le -> x <= y
  | Ge -> x >= y
  | Eq -> x = y
  | Neq -> x <> y
  | _ -> fail "boolean operator on ints"

let int_op op x y =
  if is_compare op then Value.Bool (int_compare op x y)
  else Value.Int (int_arith op x y)

let double_arith (op : Mj.Ast.binop) x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | _ -> fail "operator not defined on doubles"

let double_compare (op : Mj.Ast.binop) (x : float) y =
  match op with
  | Lt -> x < y
  | Gt -> x > y
  | Le -> x <= y
  | Ge -> x >= y
  | Eq -> Float.equal x y
  | Neq -> not (Float.equal x y)
  | _ -> fail "operator not defined on doubles"

let double_op op x y =
  if is_compare op then Value.Bool (double_compare op x y)
  else Value.Double (double_arith op x y)

(* A class's slot layout and default field values, computed once. *)
let instance_shape t cls =
  match Hashtbl.find_opt t.instances cls with
  | Some shape -> shape
  | None ->
      let fields = Mj.Symtab.instance_fields t.tab cls in
      let names =
        Array.of_list (List.map (fun (_, f) -> f.Mj.Ast.f_name) fields)
      in
      let layout = Heap.layout t.heap ~cls ~names in
      let ty name =
        match
          List.find_opt (fun (_, f) -> String.equal f.Mj.Ast.f_name name) fields
        with
        | Some (_, f) -> f.Mj.Ast.f_ty
        | None -> Mj.Ast.TNull
      in
      let shape =
        (layout, Array.map (fun n -> Value.default (ty n)) layout.Heap.l_names)
      in
      Hashtbl.replace t.instances cls shape;
      shape

let alloc_instance t cls =
  let layout, defaults = instance_shape t cls in
  Cost.alloc t.cost ~words:(Heap.words_of_object (Array.length defaults));
  Heap.alloc_object t.heap layout (Array.copy defaults)

(* Every size is checked before anything is charged or allocated: a
   negative size must not run the meter backwards, and [new int[3][-1]]
   fails before its outer array exists. *)
let check_size n = if n < 0 then fail "negative array size"

let alloc_array t elem n =
  check_size n;
  Cost.alloc t.cost ~words:n;
  Heap.alloc_array t.heap ~elem n

let rec alloc_levels t elem dims =
  Cost.alloc t.cost ~words:(match dims with d :: _ -> d | [] -> 0);
  match dims with
  | [] -> fail "array without dimensions"
  | [ n ] -> Heap.alloc_array t.heap ~elem n
  | n :: rest ->
      let sub_ty = List.fold_left (fun ty _ -> Mj.Ast.TArray ty) elem rest in
      let arr = Heap.alloc_array t.heap ~elem:sub_ty n in
      let r = Heap.deref t.heap arr in
      for i = 0 to n - 1 do
        Heap.array_set t.heap r i (alloc_levels t elem rest)
      done;
      arr

let alloc_multi t elem dims =
  List.iter check_size dims;
  alloc_levels t elem dims

let check_cast t ty v =
  match (ty, v) with
  | Mj.Ast.TClass target, Value.Ref r ->
      let dyn = Heap.object_class t.heap r in
      if Mj.Symtab.is_subclass t.tab ~sub:dyn ~super:target then v
      else fail "class cast exception: %s is not a %s" dyn target
  | _, v -> v

(* An array store widens into the element type and yields the stored
   value. *)
let array_store t r i v ~checked =
  let v =
    match Heap.get t.heap r with
    | Heap.Arr { elem; _ } -> coerce elem v
    | Heap.Object _ -> v
  in
  if checked then Heap.array_set t.heap r i v
  else Heap.array_set_unchecked t.heap r i v;
  v

let ports_state t recv =
  let r = Heap.deref t.heap recv in
  match Hashtbl.find_opt t.asr_ports r with
  | Some p -> p
  | None ->
      let p = { n_in = 0; n_out = 0; inputs = [||]; outputs = [||] } in
      Hashtbl.replace t.asr_ports r p;
      p

(* Port accesses made while the thread scheduler runs are trace events.
   The refinement checker's abstraction function rebuilds an instant's
   outputs from them (last write per port), so array contents are
   copied at the access: a later in-place update of the array must not
   change the recorded event. *)
let port_value t v =
  match v with
  | Value.Ref _ -> (
      try
        let r = Heap.deref t.heap v in
        Threads.Elements
          (Array.init (Heap.array_length t.heap r) (Heap.array_get t.heap r))
      with Heap.Runtime_error _ -> Threads.Scalar v)
  | v -> Threads.Scalar v

let note_port t native port v =
  if Threads.active () then
    Threads.note (Threads.Port { native; port; value = port_value t v })

type native = Value.t -> Value.t list -> Value.t

(* The body of a native, matched once on its name. Arguments that do
   not fit the native's shape are reported like an unknown native. *)
let native_body t ~defining ~mname : native =
  let unknown () = fail "unimplemented native method %s.%s" defining mname in
  let math1 f _ = function
    | [ x ] -> Value.Double (f (as_double x))
    | _ -> unknown ()
  in
  let ints2 f _ = function
    | [ x; y ] -> Value.Int (f (as_int x) (as_int y))
    | _ -> unknown ()
  in
  let none f recv = function [] -> f recv; Value.Null | _ -> unknown () in
  let ports f recv args = f (ports_state t recv) args in
  let port_index (p : ports) side port =
    let i = as_int port in
    let slots = if side = `In then p.inputs else p.outputs in
    if i < 0 || i >= Array.length slots then
      fail "no %s port %d" (if side = `In then "input" else "output") i;
    i
  in
  let print newline _ = function
    | [ v ] ->
        Buffer.add_string t.console (Value.to_display v);
        if newline then Buffer.add_char t.console '\n';
        Value.Null
    | _ -> unknown ()
  in
  match (defining, mname) with
  | "Math", "sqrt" -> math1 sqrt
  | "Math", "sin" -> math1 sin
  | "Math", "cos" -> math1 cos
  | "Math", "floor" -> math1 floor
  | "Math", "ceil" -> math1 ceil
  | "Math", "abs" -> math1 Float.abs
  | "Math", "pow" -> (
      fun _ -> function
        | [ x; y ] -> Value.Double (Float.pow (as_double x) (as_double y))
        | _ -> unknown ())
  | "Math", "iabs" -> (
      fun _ -> function [ x ] -> Value.Int (abs (as_int x)) | _ -> unknown ())
  | "Math", "round" -> (
      fun _ -> function
        | [ x ] -> Value.Int (Value.d2i (Float.round (as_double x)))
        | _ -> unknown ())
  | "Math", "min" -> ints2 min
  | "Math", "max" -> ints2 max
  | "PrintStream", "println" -> print true
  | "PrintStream", "print" -> print false
  | "System", "currentTimeMillis" -> (
      fun _ -> function
        | [] ->
            (* Deterministic pseudo-time derived from the cost model. *)
            Value.Int (Value.wrap32 (Cost.cycles t.cost / 100_000))
        | _ -> unknown ())
  | "Thread", "start" ->
      none (fun recv ->
          let r = Heap.deref t.heap recv in
          if Threads.active () then
            Effect.perform (Threads.Spawn (r, fun () -> t.invoke_run recv))
          else
            (* Without a scheduler, start() degrades to a synchronous call. *)
            t.invoke_run recv)
  | "Thread", "join" ->
      none (fun recv ->
          let r = Heap.deref t.heap recv in
          if Threads.active () then Effect.perform (Threads.Join r))
  | "Thread", "yield" -> none (fun _ -> Threads.maybe_yield ())
  | "ASR", "declarePorts" ->
      ports (fun p -> function
        | [ n_in; n_out ] ->
            p.n_in <- as_int n_in;
            p.n_out <- as_int n_out;
            p.inputs <- Array.make (as_int n_in) None;
            p.outputs <- Array.make (as_int n_out) None;
            Value.Null
        | _ -> unknown ())
  | "ASR", "portCount" ->
      ports (fun p -> function
        | [ dir ] -> Value.Int (if as_int dir = 0 then p.n_in else p.n_out)
        | _ -> unknown ())
  | "ASR", (("readPort" | "readPortArray") as name) ->
      ports (fun p -> function
        | [ port ] -> (
            let i = port_index p `In port in
            let want_array = name = "readPortArray" in
            let v =
              match p.inputs.(i) with
              | Some (Value.Int _ as v) when not want_array -> v
              | Some (Value.Ref _ as v) when want_array -> v
              | Some v ->
                  fail "input port %d holds %s, not %s" i (Value.to_display v)
                    (if want_array then "an array" else "an int")
              | None -> if want_array then Value.Null else Value.Int 0
            in
            note_port t name i v;
            v)
        | _ -> unknown ())
  | "ASR", "portPresent" ->
      ports (fun p -> function
        | [ port ] ->
            let i = as_int port in
            Value.Bool
              (i >= 0 && i < Array.length p.inputs && p.inputs.(i) <> None)
        | _ -> unknown ())
  | "ASR", (("writePort" | "writePortArray") as name) ->
      ports (fun p -> function
        | [ port; v ] ->
            let i = port_index p `Out port in
            p.outputs.(i) <- Some v;
            note_port t name i v;
            Value.Null
        | _ -> unknown ())
  | "JTime", "enterInstant" -> (
      fun _ -> function
        | [ label ] -> (
            let node = { label = Value.to_display label; subs = [] } in
            match t.instant_stack with
            | top :: _ ->
                top.subs <- top.subs @ [ node ];
                t.instant_stack <- node :: t.instant_stack;
                Value.Null
            | [] -> fail "instant stack underflow")
        | _ -> unknown ())
  | "JTime", "exitInstant" ->
      none (fun _ ->
          match t.instant_stack with
          | _ :: (_ :: _ as rest) -> t.instant_stack <- rest
          | _ -> fail "exitInstant without matching enterInstant")
  | _ -> fun _ _ -> unknown ()

(* The method bracket and native charge wrap every native, so a profile
   sees it as a call of its own. *)
let resolve_native t ~defining ~mname : native =
  let body = native_body t ~defining ~mname in
  let cost = t.cost in
  fun recv args ->
    Cost.enter_method_in cost defining mname;
    match
      Cost.native cost;
      body recv args
    with
    | v ->
        Cost.leave_method cost;
        v
    | exception e ->
        Cost.leave_method cost;
        raise e

let native_call t ~defining ~mname recv args =
  resolve_native t ~defining ~mname recv args

let ports_of t recv =
  let p = ports_state t recv in
  (p.n_in, p.n_out)

let set_input t recv port v =
  let p = ports_state t recv in
  if port < 0 || port >= Array.length p.inputs then fail "no input port %d" port;
  p.inputs.(port) <- v

let output_port t recv port =
  let p = ports_state t recv in
  if port < 0 || port >= Array.length p.outputs then fail "no output port %d" port;
  p.outputs.(port)

let clear_io t recv =
  let p = ports_state t recv in
  Array.fill p.inputs 0 (Array.length p.inputs) None;
  Array.fill p.outputs 0 (Array.length p.outputs) None

let instant_root t = t.root

let int_array t v =
  let r = Heap.deref t.heap v in
  Array.init (Heap.array_length t.heap r) (fun i ->
      as_int (Heap.array_get t.heap r i))

let make_int_array t contents =
  let v = Heap.alloc_array t.heap ~elem:Mj.Ast.TInt (Array.length contents) in
  let r = Heap.deref t.heap v in
  Array.iteri (fun i n -> Heap.array_set t.heap r i (Value.Int n)) contents;
  v
