module Value = Mj_runtime.Value
open Mj.Ast

(* Little-endian primitive writers. *)
let w_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let w_u32 buf n =
  w_u8 buf n;
  w_u8 buf (n lsr 8);
  w_u8 buf (n lsr 16);
  w_u8 buf (n lsr 24)

let w_i64 buf n =
  for i = 0 to 7 do
    w_u8 buf (Int64.to_int (Int64.shift_right_logical n (8 * i)))
  done

let w_str buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

(* [base]: where [src] starts in the outermost input, for diagnostics. *)
type reader = { src : string; mutable pos : int; base : int }

let malformed r fmt =
  Printf.ksprintf
    (fun what -> failwith (Printf.sprintf "classfile: %s at offset %d" what (r.base + r.pos)))
    fmt

let remaining r = String.length r.src - r.pos

let r_u8 r =
  if remaining r < 1 then malformed r "input ends";
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_u32 r =
  let a = r_u8 r in
  let b = r_u8 r in
  let c = r_u8 r in
  let d = r_u8 r in
  a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

let r_i64 r =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (r_u8 r)) (8 * i))
  done;
  !v

(* A count of items each at least one byte long: never more than the
   bytes left, so a damaged count cannot ask for a huge list. *)
let r_count r what =
  let n = r_u32 r in
  if n > remaining r then malformed r "%s count %d exceeds the %d bytes left" what n (remaining r);
  n

let r_str r =
  let n = r_u32 r in
  if n > remaining r then malformed r "string of %d bytes exceeds the %d left" n (remaining r);
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let rec w_ty buf = function
  | TInt -> w_u8 buf 0
  | TBool -> w_u8 buf 1
  | TDouble -> w_u8 buf 2
  | TString -> w_u8 buf 3
  | TVoid -> w_u8 buf 4
  | TNull -> w_u8 buf 5
  | TArray elem ->
      w_u8 buf 6;
      w_ty buf elem
  | TClass name ->
      w_u8 buf 7;
      w_str buf name

let rec r_ty r =
  match r_u8 r with
  | 0 -> TInt
  | 1 -> TBool
  | 2 -> TDouble
  | 3 -> TString
  | 4 -> TVoid
  | 5 -> TNull
  | 6 -> TArray (r_ty r)
  | 7 -> TClass (r_str r)
  | n -> malformed r "bad type tag %d" n

let w_value buf = function
  | Value.Int n ->
      w_u8 buf 0;
      w_i64 buf (Int64.of_int n)
  | Value.Double f ->
      w_u8 buf 1;
      w_i64 buf (Int64.bits_of_float f)
  | Value.Bool b ->
      w_u8 buf 2;
      w_u8 buf (if b then 1 else 0)
  | Value.Str s ->
      w_u8 buf 3;
      w_str buf s
  | Value.Null -> w_u8 buf 4
  | Value.Ref _ -> failwith "classfile: heap reference in constant pool"

let r_value r =
  match r_u8 r with
  | 0 -> Value.Int (Int64.to_int (r_i64 r))
  | 1 -> Value.Double (Int64.float_of_bits (r_i64 r))
  | 2 -> Value.Bool (r_u8 r = 1)
  | 3 -> Value.Str (r_str r)
  | 4 -> Value.Null
  | n -> malformed r "bad value tag %d" n

let w_binop buf op =
  let code =
    match op with
    | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Mod -> 4
    | Eq -> 5 | Neq -> 6 | Lt -> 7 | Gt -> 8 | Le -> 9 | Ge -> 10
    | And -> 11 | Or -> 12 | Band -> 13 | Bor -> 14 | Bxor -> 15
    | Shl -> 16 | Shr -> 17
  in
  w_u8 buf code

let r_binop r =
  match r_u8 r with
  | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> Div | 4 -> Mod
  | 5 -> Eq | 6 -> Neq | 7 -> Lt | 8 -> Gt | 9 -> Le | 10 -> Ge
  | 11 -> And | 12 -> Or | 13 -> Band | 14 -> Bor | 15 -> Bxor
  | 16 -> Shl | 17 -> Shr
  | n -> malformed r "bad binop tag %d" n

let w_instr buf (instr : Instr.t) =
  match instr with
  | Instr.Const v -> w_u8 buf 0; w_value buf v
  | Instr.Load n -> w_u8 buf 1; w_u32 buf n
  | Instr.Store n -> w_u8 buf 2; w_u32 buf n
  | Instr.Get_field f -> w_u8 buf 3; w_str buf f
  | Instr.Put_field f -> w_u8 buf 4; w_str buf f
  | Instr.Get_static (c, f) -> w_u8 buf 5; w_str buf c; w_str buf f
  | Instr.Put_static (c, f) -> w_u8 buf 6; w_str buf c; w_str buf f
  | Instr.Array_load -> w_u8 buf 7
  | Instr.Array_store -> w_u8 buf 8
  | Instr.Array_len -> w_u8 buf 9
  | Instr.New_object (c, n) -> w_u8 buf 10; w_str buf c; w_u32 buf n
  | Instr.New_array ty -> w_u8 buf 11; w_ty buf ty
  | Instr.New_multi (ty, n) -> w_u8 buf 12; w_ty buf ty; w_u32 buf n
  | Instr.Iop op -> w_u8 buf 13; w_binop buf op
  | Instr.Dop op -> w_u8 buf 14; w_binop buf op
  | Instr.Veq b -> w_u8 buf 15; w_u8 buf (if b then 1 else 0)
  | Instr.Sconcat -> w_u8 buf 16
  | Instr.Ineg -> w_u8 buf 17
  | Instr.Dneg -> w_u8 buf 18
  | Instr.Bnot -> w_u8 buf 19
  | Instr.I2d -> w_u8 buf 20
  | Instr.D2i -> w_u8 buf 21
  | Instr.Checkcast ty -> w_u8 buf 22; w_ty buf ty
  | Instr.Jump n -> w_u8 buf 23; w_u32 buf n
  | Instr.Jump_if_false n -> w_u8 buf 24; w_u32 buf n
  | Instr.Invoke_virtual (m, n) -> w_u8 buf 25; w_str buf m; w_u32 buf n
  | Instr.Invoke_static (c, m, n) -> w_u8 buf 26; w_str buf c; w_str buf m; w_u32 buf n
  | Instr.Invoke_special (c, m, n) -> w_u8 buf 27; w_str buf c; w_str buf m; w_u32 buf n
  | Instr.Invoke_ctor (c, n) -> w_u8 buf 28; w_str buf c; w_u32 buf n
  | Instr.Ret -> w_u8 buf 29
  | Instr.Ret_val -> w_u8 buf 30
  | Instr.Pop -> w_u8 buf 31
  | Instr.Dup -> w_u8 buf 32
  | Instr.Dup2 -> w_u8 buf 33
  | Instr.Dup_x1 -> w_u8 buf 34
  | Instr.Dup_x2 -> w_u8 buf 35
  | Instr.Coerce ty -> w_u8 buf 36; w_ty buf ty
  | Instr.Yield_point -> w_u8 buf 37
  | Instr.Aload_u -> w_u8 buf 38
  | Instr.Astore_u -> w_u8 buf 39

let r_instr r : Instr.t =
  match r_u8 r with
  | 0 -> Instr.Const (r_value r)
  | 1 -> Instr.Load (r_u32 r)
  | 2 -> Instr.Store (r_u32 r)
  | 3 -> Instr.Get_field (r_str r)
  | 4 -> Instr.Put_field (r_str r)
  | 5 -> let c = r_str r in Instr.Get_static (c, r_str r)
  | 6 -> let c = r_str r in Instr.Put_static (c, r_str r)
  | 7 -> Instr.Array_load
  | 8 -> Instr.Array_store
  | 9 -> Instr.Array_len
  | 10 -> let c = r_str r in Instr.New_object (c, r_u32 r)
  | 11 -> Instr.New_array (r_ty r)
  | 12 -> let ty = r_ty r in Instr.New_multi (ty, r_u32 r)
  | 13 -> Instr.Iop (r_binop r)
  | 14 -> Instr.Dop (r_binop r)
  | 15 -> Instr.Veq (r_u8 r = 1)
  | 16 -> Instr.Sconcat
  | 17 -> Instr.Ineg
  | 18 -> Instr.Dneg
  | 19 -> Instr.Bnot
  | 20 -> Instr.I2d
  | 21 -> Instr.D2i
  | 22 -> Instr.Checkcast (r_ty r)
  | 23 -> Instr.Jump (r_u32 r)
  | 24 -> Instr.Jump_if_false (r_u32 r)
  | 25 -> let m = r_str r in Instr.Invoke_virtual (m, r_u32 r)
  | 26 ->
      let c = r_str r in
      let m = r_str r in
      Instr.Invoke_static (c, m, r_u32 r)
  | 27 ->
      let c = r_str r in
      let m = r_str r in
      Instr.Invoke_special (c, m, r_u32 r)
  | 28 -> let c = r_str r in Instr.Invoke_ctor (c, r_u32 r)
  | 29 -> Instr.Ret
  | 30 -> Instr.Ret_val
  | 31 -> Instr.Pop
  | 32 -> Instr.Dup
  | 33 -> Instr.Dup2
  | 34 -> Instr.Dup_x1
  | 35 -> Instr.Dup_x2
  | 36 -> Instr.Coerce (r_ty r)
  | 37 -> Instr.Yield_point
  | 38 -> Instr.Aload_u
  | 39 -> Instr.Astore_u
  | n -> malformed r "bad instruction tag %d" n

(* "MJC2" = "MJC1" + per-method line tables. *)
let magic = "MJC2"

let w_pos buf (p : Mj.Loc.pos) =
  w_u32 buf p.Mj.Loc.line;
  w_u32 buf p.Mj.Loc.col;
  w_i64 buf (Int64.of_int p.Mj.Loc.offset)

let r_pos r =
  let line = r_u32 r in
  let col = r_u32 r in
  let offset = Int64.to_int (r_i64 r) in
  { Mj.Loc.line; col; offset }

let w_loc buf (loc : Mj.Loc.t) =
  w_str buf loc.Mj.Loc.file;
  w_pos buf loc.Mj.Loc.start_pos;
  w_pos buf loc.Mj.Loc.end_pos

let r_loc r =
  let file = r_str r in
  let start_pos = r_pos r in
  let end_pos = r_pos r in
  { Mj.Loc.file; start_pos; end_pos }

let encode_method (mc : Instr.method_code) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  w_str buf mc.Instr.mc_class;
  w_str buf mc.Instr.mc_name;
  w_u32 buf (List.length mc.Instr.mc_params);
  List.iter (w_ty buf) mc.Instr.mc_params;
  w_ty buf mc.Instr.mc_ret;
  w_u32 buf mc.Instr.mc_nlocals;
  w_u32 buf (Array.length mc.Instr.mc_code);
  Array.iter (w_instr buf) mc.Instr.mc_code;
  w_u32 buf (Array.length mc.Instr.mc_lines);
  Array.iter
    (fun (pc, loc) ->
      w_u32 buf pc;
      w_loc buf loc)
    mc.Instr.mc_lines;
  Buffer.contents buf

let r_magic r what =
  if remaining r < 4 || not (String.equal (String.sub r.src r.pos 4) magic) then
    malformed r "bad %smagic" what;
  r.pos <- r.pos + 4

let method_at r =
  r_magic r "";
  let mc_class = r_str r in
  let mc_name = r_str r in
  let n_params = r_count r "parameter" in
  let mc_params = List.init n_params (fun _ -> r_ty r) in
  let mc_ret = r_ty r in
  let mc_nlocals = r_u32 r in
  let n_code = r_count r "instruction" in
  let mc_code = Array.init n_code (fun _ -> r_instr r) in
  let n_lines = r_count r "line" in
  let mc_lines =
    Array.init n_lines (fun _ ->
        let pc = r_u32 r in
        let loc = r_loc r in
        (pc, loc))
  in
  { Instr.mc_class; mc_name; mc_params; mc_ret; mc_nlocals; mc_code; mc_lines }

let decode_method s = method_at { src = s; pos = 0; base = 0 }

let methods_of_class image cls =
  let methods =
    Hashtbl.fold
      (fun (c, _) mc acc -> if String.equal c cls then mc :: acc else acc)
      image.Compile.im_methods []
  in
  let ctors =
    Hashtbl.fold
      (fun (c, _) mc acc -> if String.equal c cls then mc :: acc else acc)
      image.Compile.im_ctors []
  in
  (* Deterministic order for stable sizes. *)
  List.sort
    (fun a b -> String.compare a.Instr.mc_name b.Instr.mc_name)
    (methods @ ctors)

let class_size image cls =
  List.fold_left
    (fun acc mc -> acc + String.length (encode_method mc))
    (* Fixed per-class overhead: header, superclass link, field table. *)
    64
    (methods_of_class image cls)

let program_size image ~classes =
  List.fold_left (fun acc cls -> acc + class_size image cls) 0 classes

let arity_key mc = (mc.Instr.mc_class, List.length mc.Instr.mc_params)

let decode_image tab blob =
  let r = { src = blob; pos = 0; base = 0 } in
  r_magic r "image ";
  let n = r_count r "method" in
  let decoded =
    List.init n (fun _ ->
        let body = r_str r in
        method_at
          { src = body; pos = 0; base = r.pos - String.length body })
  in
  let im_methods = Hashtbl.create 64 in
  let im_ctors = Hashtbl.create 16 in
  let static_init = ref None in
  List.iter
    (fun mc ->
      if String.equal mc.Instr.mc_name "<clinit>" then static_init := Some mc
      else if String.equal mc.Instr.mc_name "<init>" then
        Hashtbl.replace im_ctors (arity_key mc) mc
      else
        Hashtbl.replace im_methods (mc.Instr.mc_class, mc.Instr.mc_name) mc)
    decoded;
  match !static_init with
  | None -> malformed r "image lacks a static initializer"
  | Some im_static_init ->
      { Compile.im_tab = tab; im_methods; im_ctors; im_static_init }

let encode_image image =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  let all =
    Hashtbl.fold (fun _ mc acc -> mc :: acc) image.Compile.im_methods []
    @ Hashtbl.fold (fun _ mc acc -> mc :: acc) image.Compile.im_ctors []
    @ [ image.Compile.im_static_init ]
  in
  let all =
    List.sort
      (fun a b ->
        compare
          (a.Instr.mc_class, a.Instr.mc_name, List.length a.Instr.mc_params)
          (b.Instr.mc_class, b.Instr.mc_name, List.length b.Instr.mc_params))
      all
  in
  w_u32 buf (List.length all);
  List.iter (fun mc -> w_str buf (encode_method mc)) all;
  Buffer.contents buf
