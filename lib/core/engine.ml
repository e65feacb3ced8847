type applied = { a_transform : string; a_description : string; a_sites : int }

type step = {
  iteration : int;
  violations : Policy.Rule.violation list;
  applied : applied list;
}

type outcome = {
  initial : Mj.Ast.program;
  final : Mj.Ast.program;
  checked : Mj.Typecheck.checked;
  steps : step list;
  compliant : bool;
  residual : Policy.Rule.violation list;
  provenance : Provenance.t option;
}

(* First-occurrence order preserved; membership via a seen-set rather
   than [List.mem] over a growing accumulator (which was quadratic). *)
let dedup ids =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun id ->
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.add seen id ();
        true
      end)
    ids

let refine ?(max_iterations = 20) ?(policy = Policy.Asr_policy.rules)
    ?(catalogue = Transforms.catalogue) ?telemetry ?(provenance = false)
    program =
  let module Reg = Telemetry.Registry in
  let initial = program in
  let check_policy checked =
    List.concat_map
      (fun r ->
        match telemetry with
        | None -> r.Policy.Rule.check checked
        | Some reg ->
            Reg.enter reg ~cat:"rule" ("check." ^ r.Policy.Rule.id);
            let vs = r.Policy.Rule.check checked in
            Reg.exit reg ~args:[ ("violations", Reg.Int (List.length vs)) ] ();
            vs)
      policy
  in
  let rec loop iteration program steps prov =
    (match telemetry with
    | Some reg ->
        Reg.enter reg ~cat:"refine" "iteration"
          ~args:[ ("iteration", Reg.Int iteration) ];
        Reg.count reg "refine.iterations" 1
    | None -> ());
    let checked = Mj.Typecheck.check program in
    let violations = check_policy checked in
    let wanted =
      dedup (List.concat_map Policy.Rule.automatic_fixes violations)
    in
    (* Catalogue order keeps the engine deterministic. *)
    let transforms =
      List.filter (fun t -> List.mem t.Transforms.id wanted) catalogue
    in
    let blocking = List.filter Policy.Rule.is_blocking violations in
    let close_iteration ~outcome ~applied =
      match telemetry with
      | Some reg ->
          Reg.exit reg
            ~args:
              [ ("violations", Reg.Int (List.length violations));
                ("blocking", Reg.Int (List.length blocking));
                ("applied", Reg.Str applied);
                ("outcome", Reg.Str outcome) ]
            ()
      | None -> ()
    in
    let finish () =
      close_iteration
        ~outcome:(if blocking = [] then "compliant" else "residual")
        ~applied:"";
      let audit =
        if not provenance then None
        else
          let last =
            { Provenance.it_index = iteration; it_violations = violations;
              it_transform = None; it_description = ""; it_sites = 0;
              it_changes = []; it_checked = checked }
          in
          Some
            { Provenance.p_iterations = List.rev (last :: prov);
              p_compliant = blocking = []; p_residual = violations;
              p_final =
                Mj.Pretty.program_to_string checked.Mj.Typecheck.program }
      in
      { initial; final = checked.Mj.Typecheck.program; checked;
        steps = List.rev steps; compliant = blocking = [];
        residual = violations; provenance = audit }
    in
    if transforms = [] || iteration > max_iterations then finish ()
    else begin
      (* Apply the first transformation that changes something, then
         re-analyze: one incremental refinement per iteration. *)
      let apply_one t =
        match telemetry with
        | None -> t.Transforms.apply checked
        | Some reg ->
            Reg.enter reg ~cat:"transform" ("apply." ^ t.Transforms.id);
            let rewritten, sites = t.Transforms.apply checked in
            Reg.exit reg ~args:[ ("sites", Reg.Int sites) ] ();
            if sites > 0 then
              Reg.count reg ("transform." ^ t.Transforms.id ^ ".sites") sites;
            (rewritten, sites)
      in
      let rec try_transforms = function
        | [] -> None
        | t :: rest -> (
            let rewritten, sites = apply_one t in
            if sites = 0 then try_transforms rest
            else
              Some
                ( rewritten,
                  { a_transform = t.Transforms.id;
                    a_description = t.Transforms.description; a_sites = sites } ))
      in
      match try_transforms transforms with
      | None -> finish ()
      | Some (rewritten, applied) ->
          close_iteration ~outcome:"transformed" ~applied:applied.a_transform;
          let step = { iteration; violations; applied = [ applied ] } in
          let prov =
            if not provenance then prov
            else
              { Provenance.it_index = iteration; it_violations = violations;
                it_transform = Some applied.a_transform;
                it_description = applied.a_description;
                it_sites = applied.a_sites;
                it_changes =
                  (* diff the resolved program this iteration analyzed
                     against the transform's output, so snippets match
                     what the next iteration parses *)
                  Provenance.diff_program
                    ~before:checked.Mj.Typecheck.program ~after:rewritten;
                it_checked = checked }
              :: prov
          in
          loop (iteration + 1) rewritten (step :: steps) prov
    end
  in
  loop 1 program [] []

let refine_source ?(file = "<source>") ?telemetry ?provenance src =
  refine ?telemetry ?provenance (Mj.Parser.parse_program ~file src)

let pp_trace ppf outcome =
  Format.fprintf ppf "successive formal refinement: %d iteration(s)@."
    (List.length outcome.steps);
  List.iter
    (fun step ->
      let blocking =
        List.length (List.filter Policy.Rule.is_blocking step.violations)
      in
      Format.fprintf ppf "  iteration %d: %d violation(s) (%d blocking)@."
        step.iteration
        (List.length step.violations)
        blocking;
      List.iter
        (fun a ->
          Format.fprintf ppf "    applied %-18s (%d site(s)) — %s@."
            a.a_transform a.a_sites a.a_description)
        step.applied)
    outcome.steps;
  if outcome.compliant then
    Format.fprintf ppf "  result: compliant with the policy of use@."
  else begin
    Format.fprintf ppf "  result: %d violation(s) need manual refinement@."
      (List.length (List.filter Policy.Rule.is_blocking outcome.residual));
    List.iter
      (fun v ->
        if Policy.Rule.is_blocking v then
          Format.fprintf ppf "    %a@." Policy.Rule.pp_violation v)
      outcome.residual
  end
