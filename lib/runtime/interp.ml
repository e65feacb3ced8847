open Mj.Ast

type t = Machine.t

type frame = {
  locals : (string, Value.t) Hashtbl.t;
  local_types : (string, ty) Hashtbl.t;
  this : Value.t;
  cls : string; (* statically enclosing class, for super dispatch *)
}

exception Return_from_method of Value.t

exception Break_loop

exception Continue_loop

let fail = Machine.fail

let machine t = t

let symtab (t : t) = t.Machine.tab

let heap (t : t) = t.Machine.heap

let cycles (t : t) = Cost.cycles t.Machine.cost

let output (t : t) = Buffer.contents t.Machine.console

let coerce = Machine.coerce

let as_int = Machine.as_int

let as_double = Machine.as_double

let as_bool = Machine.as_bool

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let eval_binop op x y =
  match (op, x, y) with
  | Add, Value.Str s, v -> Value.Str (s ^ Value.to_display v)
  | Add, v, Value.Str s -> Value.Str (Value.to_display v ^ s)
  | _, Value.Int a, Value.Int b -> Machine.int_op op a b
  | _, (Value.Double _ | Value.Int _), (Value.Double _ | Value.Int _) ->
      Machine.double_op op (as_double x) (as_double y)
  | (Eq | Neq), _, _ ->
      let same = Value.equal x y in
      Value.Bool (if op = Eq then same else not same)
  | _, _, _ ->
      fail "invalid operands for '%s': %s, %s" (binop_to_string op)
        (Value.to_display x) (Value.to_display y)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec eval_expr (t : t) frame e =
  Cost.at_line t.Machine.cost e.eloc;
  Cost.dispatch t.Machine.cost;
  match e.expr with
  | Int_lit n -> Value.Int (Value.wrap32 n)
  | Double_lit f -> Value.Double f
  | Bool_lit b -> Value.Bool b
  | String_lit s -> Value.Str s
  | Null_lit -> Value.Null
  | This -> frame.this
  | Local name | Name name -> (
      Cost.load_store t.Machine.cost;
      match Hashtbl.find_opt frame.locals name with
      | Some v -> v
      | None -> fail "unbound local '%s'" name)
  | Field_access (o, fname) ->
      Cost.field t.Machine.cost;
      let r = Heap.deref t.Machine.heap (eval_expr t frame o) in
      Heap.get_field t.Machine.heap r fname
  | Static_field (cls, fname) ->
      Cost.field t.Machine.cost;
      if Threads.active () then
        Threads.note (Threads.Read_static { cls; field = fname });
      Machine.static_get t cls fname
  | Array_length o ->
      Cost.field t.Machine.cost;
      let r = Heap.deref t.Machine.heap (eval_expr t frame o) in
      Value.Int (Heap.array_length t.Machine.heap r)
  | Index (arr, idx) ->
      Cost.array t.Machine.cost;
      let r = Heap.deref t.Machine.heap (eval_expr t frame arr) in
      let i = as_int (eval_expr t frame idx) in
      Heap.array_get t.Machine.heap r i
  | Call call -> eval_call t frame e.eloc call
  | New_object (cls, args) ->
      let args = List.map (eval_expr t frame) args in
      construct t cls args
  | New_array (elem, dims) ->
      let dims = List.map (fun d -> as_int (eval_expr t frame d)) dims in
      Machine.alloc_multi t elem dims
  | Unary (Neg, x) -> (
      Cost.arith t.Machine.cost;
      match eval_expr t frame x with
      | Value.Int n -> Value.Int (Value.wrap32 (-n))
      | Value.Double f -> Value.Double (-.f)
      | v -> fail "unary '-' on %s" (Value.to_display v))
  | Unary (Not, x) ->
      Cost.arith t.Machine.cost;
      Value.Bool (not (as_bool (eval_expr t frame x)))
  | Binary (And, x, y) ->
      Cost.arith t.Machine.cost;
      if as_bool (eval_expr t frame x) then eval_expr t frame y
      else Value.Bool false
  | Binary (Or, x, y) ->
      Cost.arith t.Machine.cost;
      if as_bool (eval_expr t frame x) then Value.Bool true
      else eval_expr t frame y
  | Binary (op, x, y) ->
      Cost.arith t.Machine.cost;
      let xv = eval_expr t frame x in
      let yv = eval_expr t frame y in
      eval_binop op xv yv
  | Assign (lv, rhs) ->
      let slot = eval_slot t frame lv in
      let v = eval_expr t frame rhs in
      write_slot t frame slot v
  | Op_assign (op, lv, rhs) ->
      let slot = eval_slot t frame lv in
      let old_v = read_slot t frame slot in
      let v = eval_binop op old_v (eval_expr t frame rhs) in
      (* Compound assignment narrows back to the target's type. *)
      let v =
        match (old_v, v) with
        | Value.Int _, Value.Double f -> Value.Int (Value.d2i f)
        | _, v -> v
      in
      write_slot t frame slot v
  | Pre_incr (d, lv) ->
      let slot = eval_slot t frame lv in
      let v = Value.Int (Value.wrap32 (as_int (read_slot t frame slot) + d)) in
      write_slot t frame slot v
  | Post_incr (d, lv) ->
      let slot = eval_slot t frame lv in
      let old_v = read_slot t frame slot in
      let v = Value.Int (Value.wrap32 (as_int old_v + d)) in
      ignore (write_slot t frame slot v);
      old_v
  | Cast (ty, x) -> (
      Cost.arith t.Machine.cost;
      let v = eval_expr t frame x in
      match (ty, v) with
      | TInt, Value.Double f -> Value.Int (Value.d2i f)
      | TInt, Value.Int n -> Value.Int n
      | TDouble, v -> Value.Double (as_double v)
      | TClass _, (Value.Ref _ as v) -> Machine.check_cast t ty v
      | (TClass _ | TArray _ | TString), Value.Null -> Value.Null
      | _, v -> v)
  | Cond (c, a, b) ->
      Cost.arith t.Machine.cost;
      if as_bool (eval_expr t frame c) then eval_expr t frame a
      else eval_expr t frame b

(* ------------------------------------------------------------------ *)
(* Lvalue slots                                                        *)
(* ------------------------------------------------------------------ *)

and eval_slot t frame = function
  | Lname name | Llocal name -> `Local name
  | Lfield (o, fname) ->
      let r = Heap.deref t.Machine.heap (eval_expr t frame o) in
      `Field (r, fname)
  | Lstatic_field (cls, fname) -> `Static (cls, fname)
  | Lindex (arr, idx) ->
      let r = Heap.deref t.Machine.heap (eval_expr t frame arr) in
      let i = as_int (eval_expr t frame idx) in
      `Array (r, i)

and read_slot (t : t) frame = function
  | `Local name -> (
      Cost.load_store t.Machine.cost;
      match Hashtbl.find_opt frame.locals name with
      | Some v -> v
      | None -> fail "unbound local '%s'" name)
  | `Field (r, fname) ->
      Cost.field t.Machine.cost;
      Heap.get_field t.Machine.heap r fname
  | `Static (cls, fname) ->
      Cost.field t.Machine.cost;
      Machine.static_get t cls fname
  | `Array (r, i) ->
      Cost.array t.Machine.cost;
      Heap.array_get t.Machine.heap r i

and write_slot (t : t) frame slot v =
  (match slot with
  | `Local name ->
      Cost.load_store t.Machine.cost;
      let v =
        match Hashtbl.find_opt frame.local_types name with
        | Some ty -> coerce ty v
        | None -> v
      in
      Hashtbl.replace frame.locals name v
  | `Field (r, fname) ->
      Cost.field t.Machine.cost;
      let cls = Heap.object_class t.Machine.heap r in
      let v =
        match Mj.Symtab.lookup_field t.Machine.tab cls fname with
        | Some (_, field) -> coerce field.f_ty v
        | None -> v
      in
      Heap.set_field t.Machine.heap r fname v
  | `Static (cls, fname) ->
      Cost.field t.Machine.cost;
      if Threads.active () then
        Threads.note (Threads.Write_static { cls; field = fname; value = v });
      let v =
        match Mj.Symtab.lookup_field t.Machine.tab cls fname with
        | Some (_, field) -> coerce field.f_ty v
        | None -> v
      in
      Machine.static_set t cls fname v
  | `Array (r, i) ->
      Cost.array t.Machine.cost;
      ignore (Machine.array_store t r i v ~checked:true));
  v

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

and eval_call t frame loc call =
  Cost.call t.Machine.cost;
  let args = List.map (eval_expr t frame) call.args in
  let resolved =
    match call.resolved with
    | Some r -> r
    | None ->
        Mj.Diag.error ~loc "internal: unresolved call '%s' at runtime" call.mname
  in
  match call.recv with
  | (Rstatic _ | Rimplicit) when resolved.rc_static ->
      invoke_static t resolved.rc_class call.mname args
  | Rstatic cls -> invoke_static t cls call.mname args
  | Rimplicit -> invoke_virtual t frame.this call.mname args
  | Rexpr o ->
      let recv = eval_expr t frame o in
      invoke_virtual t recv call.mname args
  | Rsuper -> (
      match Mj.Symtab.superclass t.Machine.tab frame.cls with
      | None -> fail "no superclass for 'super' call"
      | Some super -> invoke_on_class t frame.this super call.mname args)

and invoke_static t cls mname args =
  match Mj.Symtab.lookup_method t.Machine.tab cls mname with
  | Some (defining, m) when m.m_mods.is_native ->
      Machine.native_call t ~defining ~mname Value.Null args
  | Some (defining, m) -> run_method t ~defining ~m ~this:Value.Null args
  | None -> fail "no static method %s.%s" cls mname

and invoke_virtual t recv mname args =
  let r = Heap.deref t.Machine.heap recv in
  let dyn = Heap.object_class t.Machine.heap r in
  invoke_on_class t recv dyn mname args

and invoke_on_class t recv cls mname args =
  match Mj.Symtab.lookup_method t.Machine.tab cls mname with
  | Some (defining, m) when m.m_mods.is_native ->
      Machine.native_call t ~defining ~mname recv args
  | Some (defining, m) -> run_method t ~defining ~m ~this:recv args
  | None -> fail "no method %s on class %s" mname cls

and run_method t ~defining ~m ~this args =
  match m.m_body with
  | None -> Machine.native_call t ~defining ~mname:m.m_name this args
  | Some body ->
      Machine.enter_frame t;
      Cost.enter_method_in t.Machine.cost defining m.m_name;
      Fun.protect
        ~finally:(fun () ->
          Cost.leave_method t.Machine.cost;
          Machine.leave_frame t)
      @@ fun () ->
      let frame =
        { locals = Hashtbl.create 16; local_types = Hashtbl.create 16;
          this; cls = defining }
      in
      (try
         List.iter2
           (fun (ty, name) arg ->
             Hashtbl.replace frame.local_types name ty;
             Hashtbl.replace frame.locals name (coerce ty arg))
           m.m_params args
       with Invalid_argument _ -> fail "arity mismatch calling %s" m.m_name);
      (try
         exec_stmts t frame body;
         Value.Null
       with Return_from_method v -> coerce m.m_ret v)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

and construct t cls args =
  let obj = Machine.alloc_instance t cls in
  init_chain t obj cls args;
  obj

(* Constructor chain: superclass constructor first, then this class's
   field initializers, then the constructor body. *)
and init_chain t obj cls args =
  Cost.enter_method_in t.Machine.cost cls "<init>";
  Fun.protect ~finally:(fun () -> Cost.leave_method t.Machine.cost)
  @@ fun () ->
  let ctor =
    match Mj.Symtab.lookup_ctor t.Machine.tab cls (List.length args) with
    | Some c -> c
    | None -> fail "no constructor %s/%d" cls (List.length args)
  in
  let frame =
    { locals = Hashtbl.create 16; local_types = Hashtbl.create 16;
      this = obj; cls }
  in
  (try
     List.iter2
       (fun (ty, name) arg ->
         Hashtbl.replace frame.local_types name ty;
         Hashtbl.replace frame.locals name (coerce ty arg))
       ctor.c_params args
   with Invalid_argument _ -> fail "constructor arity mismatch for %s" cls);
  let body_after_super =
    match ctor.c_body with
    | { stmt = Super_call super_args; _ } :: rest ->
        let super_vals = List.map (eval_expr t frame) super_args in
        (match Mj.Symtab.superclass t.Machine.tab cls with
        | Some super -> init_chain t obj super super_vals
        | None -> fail "super call in class without superclass");
        rest
    | body ->
        (match Mj.Symtab.superclass t.Machine.tab cls with
        | Some super -> init_chain t obj super []
        | None -> ());
        body
  in
  let decl = Mj.Symtab.get_class t.Machine.tab cls in
  List.iter
    (fun f ->
      if not f.f_mods.is_static then
        let v =
          match f.f_init with
          | Some e -> eval_expr t frame e
          | None -> Value.default f.f_ty
        in
        Heap.set_field t.Machine.heap
          (Heap.deref t.Machine.heap obj)
          f.f_name (coerce f.f_ty v))
    decl.cl_fields;
  try exec_stmts t frame body_after_super
  with Return_from_method _ -> ()

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and exec_stmts t frame stmts = List.iter (exec_stmt t frame) stmts

and exec_stmt (t : t) frame s =
  Threads.maybe_yield ();
  Cost.at_line t.Machine.cost s.sloc;
  Cost.dispatch t.Machine.cost;
  match s.stmt with
  | Block stmts -> exec_stmts t frame stmts
  | Var_decl (ty, name, init) ->
      Hashtbl.replace frame.local_types name ty;
      let v =
        match init with
        | Some e -> eval_expr t frame e
        | None -> Value.default ty
      in
      Hashtbl.replace frame.locals name (coerce ty v)
  | Expr e -> ignore (eval_expr t frame e)
  | If (c, then_s, else_s) ->
      if as_bool (eval_expr t frame c) then exec_stmt t frame then_s
      else Option.iter (exec_stmt t frame) else_s
  | While (c, body) ->
      let rec loop () =
        if as_bool (eval_expr t frame c) then begin
          (try exec_stmt t frame body with Continue_loop -> ());
          loop ()
        end
      in
      (try loop () with Break_loop -> ())
  | Do_while (body, c) ->
      let rec loop () =
        (try exec_stmt t frame body with Continue_loop -> ());
        if as_bool (eval_expr t frame c) then loop ()
      in
      (try loop () with Break_loop -> ())
  | For (init, cond, update, body) ->
      (match init with
      | Some (For_var (ty, name, ie)) ->
          Hashtbl.replace frame.local_types name ty;
          let v =
            match ie with
            | Some e -> eval_expr t frame e
            | None -> Value.default ty
          in
          Hashtbl.replace frame.locals name (coerce ty v)
      | Some (For_expr e) -> ignore (eval_expr t frame e)
      | None -> ());
      let check () =
        match cond with
        | None -> true
        | Some c -> as_bool (eval_expr t frame c)
      in
      let step () =
        match update with
        | None -> ()
        | Some u -> ignore (eval_expr t frame u)
      in
      let rec loop () =
        if check () then begin
          (try exec_stmt t frame body with Continue_loop -> ());
          step ();
          loop ()
        end
      in
      (try loop () with Break_loop -> ())
  | Return None -> raise (Return_from_method Value.Null)
  | Return (Some e) -> raise (Return_from_method (eval_expr t frame e))
  | Break -> raise Break_loop
  | Continue -> raise Continue_loop
  | Super_call _ -> fail "super constructor call outside constructor prologue"
  | Empty -> ()

(* ------------------------------------------------------------------ *)
(* Session construction and public entry points                        *)
(* ------------------------------------------------------------------ *)

let call t recv mname args = invoke_virtual t recv mname args

let call_static t cls mname args = invoke_static t cls mname args

let new_instance t cls args = construct t cls args

let run_main t cls = ignore (call_static t cls "main" [])

let create ?profile ?lines (checked : Mj.Typecheck.checked) =
  let t = Machine.create ?profile ?lines checked.symtab in
  t.Machine.invoke_run <- (fun recv -> ignore (invoke_virtual t recv "run" []));
  (* Run static field initializers in declaration order. *)
  List.iter
    (fun (cls, f) ->
      match f.f_init with
      | None -> ()
      | Some e ->
          let frame =
            { locals = Hashtbl.create 4; local_types = Hashtbl.create 4;
              this = Value.Null; cls }
          in
          let v = eval_expr t frame e in
          Machine.static_set t cls f.f_name (coerce f.f_ty v))
    (Mj.Symtab.static_fields t.Machine.tab);
  t
