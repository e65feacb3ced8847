(* The per-program analysis context (Analysis.Facts): field-array
   lengths computed at most once per (class, field) must equal the
   whole-program scan they replace, on every field of the bundled
   designs and on generated programs that exercise each clause of the
   rule — inherited fields, writes outside the declaring class's
   constructors, disagreeing sizes, compound assignments to a field of
   the same name, field initialisers and sizes written as another
   field's [.length]. *)

open Util
open Mj.Ast

(* ------------------------------------------------------------------ *)
(* Reference: the whole-program scan, run on every query               *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  let wrap32 n = Int32.to_int (Int32.of_int n)

  let rec const_int checked e =
    match e.expr with
    | Int_lit n -> Some n
    | Unary (Neg, x) -> Option.map (fun n -> wrap32 (-n)) (const_int checked x)
    | Cast (TInt, x) -> const_int checked x
    | Binary (op, x, y) -> (
        match (const_int checked x, const_int checked y) with
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
        match Mj.Symtab.lookup_field checked.Mj.Typecheck.symtab cls fname with
        | Some (_, f) when f.f_mods.is_final && equal_ty f.f_ty TInt -> (
            match f.f_init with
            | Some init -> const_int checked init
            | None -> None)
        | Some _ | None -> None)
    | Array_length inner -> (
        match inner.expr with
        | Field_access (o, fname) -> (
            match o.ety with
            | Some (TClass cls) -> field_array_length checked ~cls ~field:fname
            | _ -> None)
        | _ -> None)
    | _ -> None

  and field_array_length checked ~cls ~field =
    let tab = checked.Mj.Typecheck.symtab in
    match find_class (Mj.Symtab.program tab) cls with
    | None -> None
    | Some decl -> (
        match find_field decl field with
        | None -> (
            match decl.cl_super with
            | Some super -> field_array_length checked ~cls:super ~field
            | None -> None)
        | Some f when f.f_mods.is_static -> None
        | Some f -> (
            let sizes = ref [] in
            let foreign_write = ref false in
            let record_assign in_ctor_of_cls rhs =
              match rhs.expr with
              | New_array (_, [ dim ]) when in_ctor_of_cls -> (
                  match const_int checked dim with
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
                        | Assign (Lfield (o, fname), rhs)
                          when String.equal fname field -> (
                            match o.ety with
                            | Some (TClass c2)
                              when Mj.Symtab.is_subclass tab ~sub:c2 ~super:cls
                                   || Mj.Symtab.is_subclass tab ~sub:cls
                                        ~super:c2 ->
                                record_assign in_ctor_of_cls rhs
                            | _ -> ())
                        | Op_assign (_, Lfield (_, fname), _)
                          when String.equal fname field ->
                            foreign_write := true
                        | _ -> ())
                      body.Mj.Visit.b_stmts)
                  (Mj.Visit.bodies c))
              (Mj.Symtab.program tab).classes;
            (match f.f_init with
            | Some init -> (
                match init.expr with
                | New_array (_, [ dim ]) -> (
                    match const_int checked dim with
                    | Some n -> sizes := n :: !sizes
                    | None -> foreign_write := true)
                | Null_lit -> ()
                | _ -> foreign_write := true)
            | None -> ());
            match (!foreign_write, !sizes) with
            | true, _ | _, [] -> None
            | false, n :: rest ->
                if List.for_all (fun m -> m = n) rest then Some n else None))
end

(* Every class of the program against every field name declared in
   any class, so inherited and absent fields are asked too. *)
let queries (checked : Mj.Typecheck.checked) =
  let classes = checked.Mj.Typecheck.program.classes in
  let fields =
    List.sort_uniq String.compare
      (List.concat_map
         (fun c -> List.map (fun f -> f.f_name) c.cl_fields)
         classes)
  in
  List.concat_map (fun c -> List.map (fun f -> (c.cl_name, f)) fields) classes

(* The context's answers, asked in [order] on one shared context and
   each on a fresh context, must all equal the reference's. *)
let mismatches checked order =
  let shared = Analysis.Facts.of_checked checked in
  List.filter_map
    (fun (cls, field) ->
      let want = Reference.field_array_length checked ~cls ~field in
      let got = Analysis.Const_eval.field_array_length shared ~cls ~field in
      let fresh =
        Analysis.Const_eval.field_array_length
          (Analysis.Facts.of_checked checked) ~cls ~field
      in
      if got = want && fresh = want then None
      else
        let show = function None -> "None" | Some n -> string_of_int n in
        Some
          (Printf.sprintf "%s.%s: reference %s, shared context %s, fresh %s"
             cls field (show want) (show got) (show fresh)))
    order

let bundled =
  [ ("fir", Workloads.Fir_mj.unrestricted_source);
    ("traffic", Workloads.Traffic_mj.source);
    ("elevator", Workloads.Elevator_mj.source);
    ("fig8", Workloads.Fig8_mj.threaded_source);
    ("fig8-blocks", Workloads.Fig8_mj.refined_blocks_source);
    ("uart", Workloads.Uart_mj.source);
    ("jpeg-unrestricted",
     Workloads.Jpeg_mj.unrestricted_source ~width:48 ~height:40 ());
    ("jpeg-restricted",
     Workloads.Jpeg_mj.restricted_source ~width:48 ~height:40 ()) ]

(* ------------------------------------------------------------------ *)
(* Generated programs                                                  *)
(* ------------------------------------------------------------------ *)

(* A declares p0 and p1, B extends A with q0 and q1: in this order, a
   size may only read an earlier field's length, so no length depends
   on itself. *)
let order = [ "p0"; "p1"; "q0"; "q1" ]

let earlier f = List.filter (fun g -> String.compare g f < 0) order

type size =
  | Lit of int
  | Const_n  (* A.N, a static final *)
  | Len_of of string  (* an earlier field's .length *)
  | Local  (* a local variable: not a compile-time constant *)
  | Param  (* a method parameter: only in methods *)

type rhs = New of size | Null | Alias of string

type site = Ctor_a | Ctor_b | Meth_a | Meth_b | Foreign

type write = { w_field : string; w_site : site; w_rhs : rhs; w_this : bool }

type init = No_init | Init_new of size | Init_null | Init_alias of string

type spec = {
  inits : (string * init) list;
  writes : write list;
  clash : string option;  (* D declares [int name] and does [name += 1] *)
  same_name : string option;  (* E declares its own [int[] name] *)
}

let gen_size ~field ~in_method =
  let open QCheck.Gen in
  let base =
    [ (4, map (fun n -> Lit n) (int_range 0 3)); (2, return Const_n);
      (1, return Local) ]
  in
  let len =
    match earlier field with
    | [] -> []
    | gs -> [ (2, map (fun g -> Len_of g) (oneofl gs)) ]
  in
  frequency (base @ len @ if in_method then [ (1, return Param) ] else [])

let gen_write =
  let open QCheck.Gen in
  let* w_site =
    oneofl [ Ctor_a; Ctor_a; Ctor_b; Ctor_b; Meth_a; Meth_b; Foreign ]
  in
  let fields =
    match w_site with
    | Ctor_a | Meth_a -> [ "p0"; "p1" ]
    | Ctor_b | Meth_b | Foreign -> order
  in
  let* w_field = oneofl fields in
  let in_method = match w_site with Ctor_a | Ctor_b -> false | _ -> true in
  let* w_rhs =
    frequency
      ([ (6, map (fun s -> New s) (gen_size ~field:w_field ~in_method));
         (1, return Null) ]
      @
      match List.filter (fun g -> List.mem g fields) (earlier w_field) with
      | [] -> []
      | gs -> [ (1, map (fun g -> Alias g) (oneofl gs)) ])
  in
  let+ w_this = bool in
  { w_field; w_site; w_rhs; w_this }

let gen_init field =
  let open QCheck.Gen in
  frequency
    ([ (3, return No_init);
       (2, map (fun s -> Init_new s)
             (gen_size ~field ~in_method:false
             |> map (function Local -> Lit 2 | s -> s)));
       (1, return Init_null) ]
    @
    match earlier field with
    | [] -> []
    | gs -> [ (1, map (fun g -> Init_alias g) (oneofl gs)) ])

let gen_spec =
  let open QCheck.Gen in
  let* inits =
    flatten_l (List.map (fun f -> map (fun i -> (f, i)) (gen_init f)) order)
  in
  let* writes = list_size (int_range 0 6) gen_write in
  let* clash = opt (oneofl order) in
  let+ same_name = opt (oneofl order) in
  { inits; writes; clash; same_name }

let size_src ~recv = function
  | Lit n -> string_of_int n
  | Const_n -> "A.N"
  | Len_of g -> recv ^ g ^ ".length"
  | Local -> "k"
  | Param -> "n"

let source spec =
  let buf = Buffer.create 512 in
  let add fmt = Printf.bprintf buf fmt in
  let field_decl f =
    let init =
      match List.assoc f spec.inits with
      | No_init -> ""
      | Init_new s -> " = new int[" ^ size_src ~recv:"" s ^ "]"
      | Init_null -> " = null"
      | Init_alias g -> " = " ^ g
    in
    add "  int[] %s%s;\n" f init
  in
  let writes_at site =
    List.filter (fun w -> w.w_site = site) spec.writes
    |> List.iteri (fun i w ->
           let recv =
             match w.w_site with
             | Foreign -> "b."
             | _ -> if w.w_this then "this." else ""
           in
           let rhs =
             match w.w_rhs with
             | New s -> "new int[" ^ size_src ~recv s ^ "]"
             | Null -> "null"
             | Alias g -> recv ^ g
           in
           (* each write in its own block, so its local is scoped *)
           add "    { int k = %d; %s%s = %s; }\n" (i + 1) recv w.w_field rhs)
  in
  add "class A {\n  static final int N = 3;\n";
  List.iter field_decl [ "p0"; "p1" ];
  add "  A() {\n";
  writes_at Ctor_a;
  add "  }\n  void ma(int n) {\n";
  writes_at Meth_a;
  add "  }\n}\nclass B extends A {\n";
  List.iter field_decl [ "q0"; "q1" ];
  add "  B() {\n    super();\n";
  writes_at Ctor_b;
  add "  }\n  void mb(int n) {\n";
  writes_at Meth_b;
  add "  }\n}\nclass C {\n  void poke(B b, int n) {\n";
  writes_at Foreign;
  add "  }\n}\n";
  Option.iter
    (fun f -> add "class D {\n  int %s;\n  void bump() { %s += 1; }\n}\n" f f)
    spec.clash;
  Option.iter
    (fun f -> add "class E {\n  int[] %s;\n  E() { %s = new int[9]; }\n}\n" f f)
    spec.same_name;
  Buffer.contents buf

let arb_program = QCheck.make ~print:source gen_spec

let suite =
  [ case "bundled designs: every (class, field) length equals the scan"
      (fun () ->
        List.iter
          (fun (name, src) ->
            let checked = check_src ~file:(name ^ ".mj") src in
            match mismatches checked (queries checked) with
            | [] -> ()
            | m :: _ -> Alcotest.failf "%s: %s" name m)
          bundled);
    case "a size written as the field's own length reads as unknown"
      (fun () ->
        let checked =
          check_src
            "class A { int[] buf; A() { buf = new int[4]; buf = new \
             int[buf.length]; } }"
        in
        Alcotest.(check (option int)) "unknown" None
          (Analysis.Const_eval.field_array_length
             (Analysis.Facts.of_checked checked) ~cls:"A" ~field:"buf"));
    qcase ~count:300
      "generated programs: every (class, field) length equals the scan"
      arb_program (fun spec ->
        let checked =
          try check_src (source spec)
          with Mj.Diag.Compile_error d ->
            QCheck.Test.fail_reportf "does not typecheck: %s"
              d.Mj.Diag.message
        in
        let qs = queries checked in
        (* forwards and backwards on one shared context: the memo must
           not depend on which field was asked first *)
        match mismatches checked qs @ mismatches checked (List.rev qs) with
        | [] -> true
        | m :: _ -> QCheck.Test.fail_reportf "%s" m) ]
