module Machine = Mj_runtime.Machine

type 'code target = Code of 'code | Native of Machine.native

type 'code t = {
  image : Compile.image;
  m : Machine.t;
  load : this:bool -> Instr.method_code -> 'code;
  codes : (string * string, 'code) Hashtbl.t;  (* by defining class *)
  targets : (string * string, 'code target) Hashtbl.t;  (* by searched class *)
  ctors : (string * int, 'code) Hashtbl.t;
}

let create image m ~load =
  { image; m; load; codes = Hashtbl.create 64; targets = Hashtbl.create 64;
    ctors = Hashtbl.create 16 }

let fail = Machine.fail

(* Whether [defining.mname] takes a receiver in slot 0. *)
let has_this l (defining, mname) =
  match Mj.Symtab.lookup_method l.image.Compile.im_tab defining mname with
  | Some (_, m) -> not m.Mj.Ast.m_mods.Mj.Ast.is_static
  | None -> false

let code l key mc =
  match Hashtbl.find_opt l.codes key with
  | Some c -> c
  | None ->
      let c = l.load ~this:(has_this l key) mc in
      Hashtbl.replace l.codes key c;
      c

let resolve l cls mname =
  match Compile.find_method l.image cls mname with
  | Some (defining, mc) -> Code (code l (defining, mname) mc)
  | None -> (
      match Mj.Symtab.lookup_method l.image.Compile.im_tab cls mname with
      | Some (defining, m) when m.Mj.Ast.m_mods.Mj.Ast.is_native ->
          Native (Machine.resolve_native l.m ~defining ~mname)
      | Some (defining, _) -> fail "method %s.%s has no code" defining mname
      | None -> fail "no method %s on %s" mname cls)

let target l cls mname =
  match Hashtbl.find_opt l.targets (cls, mname) with
  | Some tg -> tg
  | None ->
      let tg = resolve l cls mname in
      Hashtbl.replace l.targets (cls, mname) tg;
      tg

let ctor l cls arity =
  match Hashtbl.find_opt l.ctors (cls, arity) with
  | Some c -> c
  | None -> (
      match Hashtbl.find_opt l.image.Compile.im_ctors (cls, arity) with
      | Some mc ->
          let c = l.load ~this:true mc in
          Hashtbl.replace l.ctors (cls, arity) c;
          c
      | None -> fail "no constructor %s/%d" cls arity)
