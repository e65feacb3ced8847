(* Pinned outputs of the analyses the refinement checker and the policy
   rules share: the full verification-condition list of
   [Verify.check_program] on FIR and the unrestricted JPEG (8x8 and
   48x40), the [refinement_rule] violations of every bundled design,
   [Loop_bounds.for_bound] on every bundled [for] loop and the size of
   [Elide.plan] per bundled design.

   Each case renders its output one fact per line and compares the line
   count and the MD5 of the text with the values recorded when the case
   was added; a mismatch prints the rendering so it can be diffed
   against a run of the recording commit. A change that is meant to
   move one of these outputs must re-record it and say why. *)

open Util
module V = Javatime.Verify
module R = Analysis.Refinement
module Rule = Policy.Rule

let designs =
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

let checked_design name =
  check_src ~file:(name ^ ".mj") (List.assoc name designs)

let facts_of_design name = Analysis.Facts.of_checked (checked_design name)

let loc = Mj.Loc.to_string

let pin ~what ~lines:want_lines ~md5:want_md5 rendered =
  let text = String.concat "\n" rendered in
  let got_md5 = Digest.to_hex (Digest.string text) in
  let got_lines = List.length rendered in
  if got_lines <> want_lines || not (String.equal got_md5 want_md5) then begin
    prerr_endline text;
    Alcotest.failf "%s moved: %d line(s), md5 %s (pinned: %d, %s)" what
      got_lines got_md5 want_lines want_md5
  end

let render_vc prefix v =
  Printf.sprintf "%s | %s | %s | %s | %b | %s | %s -> %s" prefix
    v.R.vc_transform v.R.vc_class v.R.vc_site v.R.vc_ok v.R.vc_detail
    (loc v.R.vc_before) (loc v.R.vc_after)

let render_report report =
  List.concat_map
    (fun s ->
      List.map
        (render_vc (Printf.sprintf "#%d %s" s.V.s_iteration s.V.s_transform))
        s.V.s_vcs)
    report.V.v_steps
  @ [ render_vc "races" report.V.v_races;
      Printf.sprintf "discharged %d, failed %d" report.V.v_discharged
        report.V.v_failed ]

let vc_list_case name program ~lines ~md5 =
  case (Printf.sprintf "check_program VC list: %s" name) (fun () ->
      let report, _ = V.check_program program in
      pin ~what:(name ^ " VC list") ~lines ~md5 (render_report report))

let render_violation (v : Rule.violation) =
  Printf.sprintf "%s | %s | %s | %s | %s" v.Rule.rule_id (loc v.Rule.loc)
    v.Rule.subject v.Rule.message
    (String.concat ", "
       (List.map (fun (role, l) -> role ^ "@" ^ loc l) v.Rule.related))

(* Every [for] statement of every body, in source order, with the body
   that encloses it. *)
let for_loops (checked : Mj.Typecheck.checked) =
  List.concat_map
    (fun cls ->
      List.concat_map
        (fun body ->
          let acc = ref [] in
          Mj.Visit.iter_stmts body.Mj.Visit.b_stmts
            ~expr:(fun _ -> ())
            ~stmt:(fun s ->
              match s.Mj.Ast.stmt with
              | Mj.Ast.For _ -> acc := (body, s) :: !acc
              | _ -> ());
          List.rev !acc)
        (Mj.Visit.bodies cls))
    checked.Mj.Typecheck.program.Mj.Ast.classes

let render_bound = function
  | Policy.Loop_bounds.Bounded n -> Printf.sprintf "bounded %d" n
  | Policy.Loop_bounds.Index_modified x -> "index modified " ^ x
  | Policy.Loop_bounds.Unrecognized why -> "unrecognized: " ^ why

let suite =
  [ vc_list_case "fir"
      (parse ~file:"fir.mj" Workloads.Fir_mj.unrestricted_source)
      ~lines:9 ~md5:"a593676f2e4f07c8ba9fb9983ebd755c";
    vc_list_case "jpeg 8x8"
      (parse ~file:"jpeg.mj"
         (Workloads.Jpeg_mj.unrestricted_source ~width:8 ~height:8 ()))
      ~lines:23 ~md5:"7590fffd6f547c33f687d10a59f2688a";
    vc_list_case "jpeg 48x40"
      (parse ~file:"jpeg.mj"
         (Workloads.Jpeg_mj.unrestricted_source ~width:48 ~height:40 ()))
      ~lines:23 ~md5:"d64927fb9e90cf6c0d7defdbeb62883f";
    case "refinement_rule violations of the bundled designs" (fun () ->
        let rendered =
          List.concat_map
            (fun (name, _) ->
              let vs = V.refinement_rule.Rule.check (checked_design name) in
              Printf.sprintf "%s: %d" name (List.length vs)
              :: List.map render_violation vs)
            designs
        in
        pin ~what:"refinement_rule violations" ~lines:9
          ~md5:"c568201badec83992cfb7732e46c57cb" rendered);
    case "for_bound on every bundled for loop" (fun () ->
        let rendered =
          List.concat_map
            (fun (name, _) ->
              let checked = checked_design name in
              let facts = Analysis.Facts.of_checked checked in
              List.map
                (fun (body, s) ->
                  Printf.sprintf "%s | %s | %s | %s" name
                    (Mj.Visit.body_name body) (loc s.Mj.Ast.sloc)
                    (render_bound
                       (Policy.Loop_bounds.for_bound
                          ~enclosing:body.Mj.Visit.b_stmts facts s)))
                (for_loops checked))
            designs
        in
        pin ~what:"for_bound results" ~lines:62
          ~md5:"ef800579e63088e4b6c838baddaaed23" rendered);
    case "Elide.plan site count per bundled design" (fun () ->
        let counts =
          List.map
            (fun (name, _) ->
              ( name,
                Hashtbl.length (Analysis.Elide.plan (facts_of_design name)) ))
            designs
        in
        Alcotest.(check (list (pair string int)))
          "elided sites"
          [ ("fir", 8); ("traffic", 0); ("elevator", 2); ("fig8", 0);
            ("fig8-blocks", 0); ("uart", 0); ("jpeg-unrestricted", 7);
            ("jpeg-restricted", 2) ]
          counts) ]
