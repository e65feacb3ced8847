(* Escape analysis, shared by the policy rules, the transformations
   that fix their findings and the verification conditions that check
   those transformations, so that a violation advertises an automatic
   fix exactly when the transformation will fire and its VC holds. *)

open Mj.Ast

(* [local_escapes x body]: [x] is used other than through indexing,
   [.length], element reads/writes, or rebinding — i.e. it is returned,
   passed to a call or constructor, stored into a field/array/static,
   aliased into another variable, or selected by a conditional. *)
let local_escapes name stmts =
  let escapes = ref false in
  (* A cast does not launder the reference: [(int[]) x] still escapes
     wherever [x] would. *)
  let rec is_x e =
    match e.expr with
    | Local n | Name n -> String.equal n name
    | Cast (_, inner) -> is_x inner
    | _ -> false
  in
  Mj.Visit.iter_stmts stmts
    ~stmt:(fun s ->
      match s.stmt with
      | Return (Some e) when is_x e -> escapes := true
      | Var_decl (_, _, Some e) when is_x e -> escapes := true
      | _ -> ())
    ~expr:(fun e ->
      match e.expr with
      | Call { args; _ } -> if List.exists is_x args then escapes := true
      | New_object (_, args) -> if List.exists is_x args then escapes := true
      | Assign (lv, rhs) | Op_assign (_, lv, rhs) ->
          if is_x rhs then (
            match lv with
            | Lname n | Llocal n when String.equal n name -> ()
            | Lname _ | Llocal _ | Lfield _ | Lstatic_field _ | Lindex _ ->
                escapes := true)
      | Cond (_, a, b) -> if is_x a || is_x b then escapes := true
      | _ -> ());
  !escapes

(* The zero literal used to re-establish fresh-array semantics after
   hoisting; [None] for element types the transformation skips. *)
let hoistable_zero = function
  | TInt -> Some (Int_lit 0)
  | TDouble -> Some (Double_lit 0.0)
  | TBool -> Some (Bool_lit false)
  | TString | TVoid | TNull | TArray _ | TClass _ -> None

(* A constant-size, non-escaping array declaration the hoist-alloc
   transformation handles. *)
let hoistable_decl checked ~method_body s =
  match s.stmt with
  | Var_decl (TArray elem, x, Some { expr = New_array (elem2, [ dim ]); _ }) ->
      equal_ty elem elem2
      && Const_eval.const_int checked dim <> None
      && hoistable_zero elem <> None
      && not (local_escapes x method_body)
  | _ -> false

(* Does code outside class [cls] read or write instance field
   [cls.field] (through a receiver typed as [cls] or a subclass)? When
   it does not, privatize-fields may make the field private: R6 offers
   the automatic fix, the transformation applies it and its VC accepts
   it on exactly this test. *)
let field_accessed_externally checked ~cls ~field =
  let tab = checked.Mj.Typecheck.symtab in
  List.exists
    (fun c ->
      (not (String.equal c.cl_name cls))
      && List.exists
           (fun body ->
             Mj.Visit.exists_expr
               (fun e ->
                 let hits o fname =
                   String.equal fname field
                   &&
                   match o.ety with
                   | Some (TClass c2) ->
                       Mj.Symtab.is_subclass tab ~sub:c2 ~super:cls
                   | _ -> false
                 in
                 match e.expr with
                 | Field_access (o, fname) -> hits o fname
                 | Assign (Lfield (o, fname), _)
                 | Op_assign (_, Lfield (o, fname), _)
                 | Pre_incr (_, Lfield (o, fname))
                 | Post_incr (_, Lfield (o, fname)) ->
                     hits o fname
                 | _ -> false)
               body.Mj.Visit.b_stmts)
           (Mj.Visit.bodies c))
    (Mj.Symtab.program tab).classes
