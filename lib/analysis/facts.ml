(* One analysis context per checked program.

   The loop-bound analysis, the reaction-time bound, the elision plan
   and the refinement VCs all ask the same two questions of a program
   many times over: the statically known length of an array field
   ({!Const_eval.field_array_length}, a whole-program scan), and the
   interval summary of a body ({!Interval.analyze}, a fixpoint). The
   context answers each once and keeps the answer for as long as the
   caller keeps the context; a caller builds it at its entry point and
   threads it down. Nothing is cached outside a context. *)

type summary = {
  safe_sites : (Mj.Loc.t, unit) Hashtbl.t;
      (* index-expression spans whose access is always in bounds *)
  loop_envs : (Mj.Loc.t, Itv.env) Hashtbl.t;
      (* for-statement span -> abstract environment at loop entry *)
}

(* Bodies are keyed by the physical identity of their statement list:
   every caller hands over the list the program holds. *)
module Bodies = Hashtbl.Make (struct
  type t = Mj.Ast.stmt list

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type length = Known of int option | In_progress

type t = {
  checked : Mj.Typecheck.checked;
  lengths : (string * string, length) Hashtbl.t;  (* (class, field) *)
  summaries : summary Bodies.t;
}

let of_checked checked =
  { checked; lengths = Hashtbl.create 16; summaries = Bodies.create 16 }

let checked t = t.checked

(* [memo_length t key compute]: the length of field [key], computed at
   most once. A query that reaches its own key while computing it (a
   size written as the field's own [.length]) reads as unknown. *)
let memo_length t key compute =
  match Hashtbl.find_opt t.lengths key with
  | Some (Known n) -> n
  | Some In_progress -> None
  | None ->
      Hashtbl.replace t.lengths key In_progress;
      let n = compute () in
      Hashtbl.replace t.lengths key (Known n);
      n

let memo_summary t stmts compute =
  match Bodies.find_opt t.summaries stmts with
  | Some s -> s
  | None ->
      let s = compute () in
      Bodies.replace t.summaries stmts s;
      s
