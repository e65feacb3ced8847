(* Static shared-field race detector.

   The static counterpart of the paper's Fig. 8 demonstration: instead
   of exhibiting one bad interleaving with seeded schedules, walk the
   call graph ({!Call_graph}) from every thread's [run] entry point —
   the [run] an instance of that class enters — and report each
   static field that is reachable from more than one concurrent root
   with at least one write. Programs without [Thread] subclasses (the
   ASR style the policy of use enforces) trivially have no races —
   reactions are executed sequentially by the simulator.

   Roots are the [run] methods of Thread subclasses (and everything
   they reach, including constructors of objects they allocate), plus
   [main] itself for the window where started threads may still be
   running: accesses [main] performs after a [start()] and before the
   matching unconditional [join()]s are concurrent with the threads.
   Accesses after all joins are ordered by the joins and not counted.

   A single root still races with itself when its class can be
   instantiated more than once — two instances of the same [run] method
   interleave just like two distinct classes do. *)

open Mj.Ast

type access = { a_root : string; a_loc : Mj.Loc.t; a_write : bool }

type race = {
  r_class : string;  (* class declaring the field *)
  r_field : string;
  r_roots : string list;  (* thread classes that reach the field *)
  r_writes : (string * Mj.Loc.t) list;  (* root, write site *)
  r_reads : (string * Mj.Loc.t) list;
  r_loc : Mj.Loc.t;  (* representative source span (first write) *)
}

(* Canonical owner of a possibly-inherited static field. *)
let owner_of checked cls fname =
  match Mj.Symtab.lookup_field checked.Mj.Typecheck.symtab cls fname with
  | Some (defining, _) -> defining
  | None -> cls

(* Can more than one instance of [cls] exist?  Statically approximated:
   two or more [new cls(...)] sites anywhere in the program, or any
   such site under a loop.  (A site in a method invoked repeatedly is
   missed — the approximation errs towards fewer reports, like the rest
   of this detector.) *)
let multiply_instantiated checked cls =
  let sites = ref 0 and looped_site = ref false in
  let count_expr ~looped e =
    Mj.Visit.iter_expr
      (fun x ->
        match x.expr with
        | New_object (c, _) when String.equal c cls ->
            incr sites;
            if looped then looped_site := true
        | _ -> ())
      e
  in
  let rec walk ~looped s =
    match s.stmt with
    | Block ss -> List.iter (walk ~looped) ss
    | Var_decl (_, _, e) -> Option.iter (count_expr ~looped) e
    | Expr e -> count_expr ~looped e
    | Return e -> Option.iter (count_expr ~looped) e
    | Break | Continue | Empty -> ()
    | Super_call args -> List.iter (count_expr ~looped) args
    | If (c, t, f) ->
        count_expr ~looped c;
        walk ~looped t;
        Option.iter (walk ~looped) f
    | While (c, b) ->
        count_expr ~looped:true c;
        walk ~looped:true b
    | Do_while (b, c) ->
        walk ~looped:true b;
        count_expr ~looped:true c
    | For (init, c, u, b) ->
        (match init with
        | Some (For_var (_, _, e)) -> Option.iter (count_expr ~looped) e
        | Some (For_expr e) -> count_expr ~looped e
        | None -> ());
        Option.iter (count_expr ~looped:true) c;
        Option.iter (count_expr ~looped:true) u;
        walk ~looped:true b
  in
  List.iter
    (fun decl ->
      List.iter
        (fun b -> List.iter (walk ~looped:false) b.Mj.Visit.b_stmts)
        (Mj.Visit.bodies decl))
    checked.Mj.Typecheck.program.classes;
  !sites >= 2 || !looped_site

(* Static-field accesses of [stmts], reported to [note] under [root]. *)
let note_accesses note root stmts =
  Mj.Visit.iter_exprs
    (fun e ->
      match e.expr with
      | Static_field (cls, field) -> note root ~cls ~field ~write:false e.eloc
      | Assign (Lstatic_field (cls, field), _) ->
          note root ~cls ~field ~write:true e.eloc
      | Op_assign (_, Lstatic_field (cls, field), _)
      | Pre_incr (_, Lstatic_field (cls, field))
      | Post_incr (_, Lstatic_field (cls, field)) ->
          note root ~cls ~field ~write:true e.eloc;
          note root ~cls ~field ~write:false e.eloc
      | _ -> ())
    stmts

(* Calls to the native [Thread.start]/[Thread.join] inside [stmts]. *)
let thread_calls mname stmts =
  let n = ref 0 in
  Mj.Visit.iter_exprs
    (fun e ->
      match e.expr with
      | Call { mname = m; resolved = Some { rc_class = "Thread"; _ }; _ }
        when String.equal m mname ->
          incr n
      | _ -> ())
    stmts;
  !n

(* Walk each [main] body in order: once a thread has been started and
   not yet joined, main's own static-field accesses are concurrent with
   the running threads and count under the root "main".  Starts are
   counted anywhere in a statement (over-approximating the open
   window); joins close the window only from unconditional straight-line
   statements — a join under an [if] or loop may not execute. *)
let note_main_accesses checked note =
  let rec step (started, joined) s =
    match s.stmt with
    | Block ss -> List.fold_left step (started, joined) ss
    | _ ->
        let starts = thread_calls "start" [ s ] in
        let joins = thread_calls "join" [ s ] in
        if started > joined || starts > 0 then note_accesses note "main" [ s ];
        let unconditional =
          match s.stmt with Expr _ | Var_decl _ | Return _ -> true | _ -> false
        in
        (started + starts, if unconditional then joined + joins else joined)
  in
  List.iter
    (fun decl ->
      List.iter
        (fun m ->
          match (m.m_name, m.m_mods.is_static, m.m_body) with
          | "main", true, Some body ->
              ignore (List.fold_left step (0, 0) body)
          | _ -> ())
        decl.cl_methods)
    checked.Mj.Typecheck.program.classes

let detect checked =
  let user =
    List.map (fun c -> c.cl_name) checked.Mj.Typecheck.program.classes
  in
  let accesses : (string * string, access list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let note root ~cls ~field ~write loc =
    let cls = owner_of checked cls field in
    if List.mem cls user then begin
      let key = (cls, field) in
      let cell =
        match Hashtbl.find_opt accesses key with
        | Some c -> c
        | None ->
            let c = ref [] in
            Hashtbl.replace accesses key c;
            c
      in
      cell := { a_root = root; a_loc = loc; a_write = write } :: !cell
    end
  in
  (match Mj.Symtab.subclasses checked.Mj.Typecheck.symtab "Thread" with
  | [] -> ()
  | threads ->
      let graph = Call_graph.build checked in
      List.iter
        (fun root ->
          List.iter
            (fun node ->
              List.iter
                (fun b -> note_accesses note root b.Mj.Visit.b_stmts)
                (Call_graph.bodies graph node))
            (Call_graph.reachable graph
               ~roots:
                 (Option.to_list (Call_graph.method_node graph root "run"))))
        threads);
  note_main_accesses checked note;
  let races = ref [] in
  Hashtbl.iter
    (fun (cls, field) cell ->
      let accs = List.rev !cell in
      let roots = List.sort_uniq compare (List.map (fun a -> a.a_root) accs) in
      let writes =
        List.filter_map
          (fun a -> if a.a_write then Some (a.a_root, a.a_loc) else None)
          accs
      in
      let racy =
        writes <> []
        &&
        match roots with
        | [] -> false
        | [ root ] ->
            (* One root races with itself when two of its instances can
               run; [main] alone cannot (it is a single thread). *)
            (not (String.equal root "main"))
            && multiply_instantiated checked root
        | _ :: _ :: _ -> true
      in
      if racy then
        races :=
          { r_class = cls;
            r_field = field;
            r_roots = roots;
            r_writes = writes;
            r_reads =
              List.filter_map
                (fun a -> if a.a_write then None else Some (a.a_root, a.a_loc))
                accs;
            r_loc = snd (List.hd writes) }
          :: !races)
    accesses;
  List.sort (fun a b -> compare (a.r_class, a.r_field) (b.r_class, b.r_field))
    !races

(* How a root reaches the field, for messages: thread roots via their
   [run] method, the pseudo-root "main" via its pre-join window. *)
let root_label root =
  if String.equal root "main" then "main (between start and join)"
  else root ^ ".run"

let describe r =
  let writers =
    List.sort_uniq compare (List.map (fun (root, _) -> root) r.r_writes)
  in
  match r.r_roots with
  | [ root ] ->
      Printf.sprintf
        "static field '%s.%s' is written from %s and multiple %s instances \
         may run concurrently"
        r.r_class r.r_field (root_label root) root
  | roots ->
      Printf.sprintf
        "static field '%s.%s' is shared by %s and written from %s without \
         synchronization"
        r.r_class r.r_field
        (String.concat ", " (List.map root_label roots))
        (String.concat ", " (List.map root_label writers))
