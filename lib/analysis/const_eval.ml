(* Constant evaluation over typed MJ expressions.

   Folding follows the runtime's 32-bit integer semantics: every
   arithmetic result is wrapped exactly as the VM wraps it
   (Int32 round-trip), so a folded constant always equals the value the
   program would compute. Division and modulo by a constant zero yield
   [None] — the analysis never raises; the runtime trap is preserved.

   Understands integer literals, arithmetic on constants, casts between
   numeric constants, [static final] int fields with constant
   initializers, and [f.length] where [f] is a field that every
   constructor of its class assigns a [new T\[c\]] of constant size
   (and that is never assigned elsewhere). Used by the loop-bound
   analysis, the reaction-time bound, the bytecode compiler's elision
   planner and the refinement checker.

   Both functions take the program's {!Facts} context: a field's length
   needs a scan of the whole program, which the context runs at most
   once per (class, field) however often the interval analysis asks. *)

open Mj.Ast

(* Same semantics as Mj_runtime.Value.wrap32; reimplemented locally
   because this library sits below the runtime. *)
let wrap32 n = Int32.to_int (Int32.of_int n)

let rec const_int facts e =
  match e.expr with
  | Int_lit n -> Some n
  | Unary (Neg, x) -> Option.map (fun n -> wrap32 (-n)) (const_int facts x)
  | Cast (TInt, x) -> const_int facts x
  | Binary (op, x, y) -> (
      match (const_int facts x, const_int facts y) with
      | Some a, Some b -> (
          match op with
          | Add -> Some (wrap32 (a + b))
          | Sub -> Some (wrap32 (a - b))
          | Mul -> Some (wrap32 (a * b))
          | Div -> if b = 0 then None else Some (wrap32 (a / b))
          | Mod -> if b = 0 then None else Some (a mod b)
          | Shl -> Some (wrap32 (a lsl (b land 31)))
          | Shr -> Some (a asr (b land 31))
          | Band -> Some (a land b)
          | Bor -> Some (a lor b)
          | Bxor -> Some (a lxor b)
          | Eq | Neq | Lt | Gt | Le | Ge | And | Or -> None)
      | _, _ -> None)
  | Static_field (cls, fname) -> (
      match
        Mj.Symtab.lookup_field (Facts.checked facts).Mj.Typecheck.symtab cls
          fname
      with
      | Some (_, f) when f.f_mods.is_final && equal_ty f.f_ty TInt -> (
          match f.f_init with
          | Some init -> const_int facts init
          | None -> None)
      | Some _ | None -> None)
  | Array_length inner -> (
      (* f.length where the receiver's static type identifies the class. *)
      match inner.expr with
      | Field_access (o, fname) -> (
          match o.ety with
          | Some (TClass cls) -> field_array_length facts ~cls ~field:fname
          | _ -> None)
      | _ -> None)
  | Double_lit _ | Bool_lit _ | String_lit _ | Null_lit | This | Name _
  | Local _ | Field_access _ | Index _ | Call _ | New_object _ | New_array _
  | Unary (Not, _) | Assign _ | Op_assign _ | Pre_incr _ | Post_incr _
  | Cast _ | Cond _ ->
      None

(* Statically known length of the array held by instance field
   [cls.field], when it is allocated with a constant size in every
   constructor (or its field initializer) and never reassigned. *)
and field_array_length facts ~cls ~field =
  Facts.memo_length facts (cls, field) (fun () ->
      let tab = (Facts.checked facts).Mj.Typecheck.symtab in
      match find_class (Mj.Symtab.program tab) cls with
      | None -> None
      | Some decl -> (
          match find_field decl field with
          | None -> (
              (* Inherited field: look in the superclass. *)
              match decl.cl_super with
              | Some super -> field_array_length facts ~cls:super ~field
              | None -> None)
          | Some f when f.f_mods.is_static -> None
          | Some f -> declared_array_length facts ~cls ~field f))

(* One scan of the program for the writes to [cls.field], declared as
   [f] in [cls]. *)
and declared_array_length facts ~cls ~field f =
  let tab = (Facts.checked facts).Mj.Typecheck.symtab in
  (* Collect every assignment to the field anywhere in the program; the
     length is known when all are constant-size allocations in this
     class's constructors or initializer, and they agree. *)
  let sizes = ref [] in
  let foreign_write = ref false in
  let record_assign in_ctor_of_cls rhs =
    match rhs.expr with
    | New_array (_, [ dim ]) when in_ctor_of_cls -> (
        match const_int facts dim with
        | Some n -> sizes := n :: !sizes
        | None -> foreign_write := true)
    | _ -> foreign_write := true
  in
  List.iter
    (fun c ->
      List.iter
        (fun body ->
          let in_ctor_of_cls =
            String.equal c.cl_name cls
            &&
            match body.Mj.Visit.b_kind with
            | Mj.Visit.Ctor _ | Mj.Visit.Field_init _ -> true
            | Mj.Visit.Method _ -> false
          in
          Mj.Visit.iter_exprs
            (fun e ->
              match e.expr with
              | Assign (Lfield (o, fname), rhs) when String.equal fname field
                -> (
                  match o.ety with
                  | Some (TClass c2)
                    when Mj.Symtab.is_subclass tab ~sub:c2 ~super:cls
                         || Mj.Symtab.is_subclass tab ~sub:cls ~super:c2 ->
                      record_assign in_ctor_of_cls rhs
                  | _ -> ())
              | Op_assign (_, Lfield (_, fname), _)
                when String.equal fname field ->
                  foreign_write := true
              | _ -> ())
            body.Mj.Visit.b_stmts)
        (Mj.Visit.bodies c))
    (Mj.Symtab.program tab).classes;
  (* A field initializer with a constant allocation also counts. *)
  (match f.f_init with
  | Some init -> (
      match init.expr with
      | New_array (_, [ dim ]) -> (
          match const_int facts dim with
          | Some n -> sizes := n :: !sizes
          | None -> foreign_write := true)
      | Null_lit -> ()
      | _ -> foreign_write := true)
  | None -> ());
  match (!foreign_write, !sizes) with
  | true, _ | _, [] -> None
  | false, n :: rest ->
      if List.for_all (fun m -> m = n) rest then Some n else None
