open Util
module R = Telemetry.Registry
module J = Telemetry.Json
module P = Telemetry.Profile
module L = Telemetry.Lines
module F = Telemetry.Flame

(* ------------------------------------------------------------------ *)
(* Telemetry.Lines: the per-source-line attribution table              *)
(* ------------------------------------------------------------------ *)

let lines_tests =
  [ case "charges accrue to the current position" (fun () ->
        let lt = L.create () in
        L.set lt ~file:"a.mj" ~line:3;
        L.charge lt 10;
        L.charge lt 5;
        L.set lt ~file:"a.mj" ~line:7;
        L.charge lt 2;
        Alcotest.(check int) "total" 17 (L.total lt);
        match L.rows lt with
        | [ r3; r7 ] ->
            Alcotest.(check int) "line 3" 15 r3.L.e_cycles;
            Alcotest.(check int) "line 7" 2 r7.L.e_cycles
        | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
    case "charges before any set are unattributed" (fun () ->
        let lt = L.create () in
        L.charge lt 4;
        match L.rows lt with
        | [ r ] ->
            Alcotest.(check string) "file" "" r.L.e_file;
            Alcotest.(check int) "line" 0 r.L.e_line;
            Alcotest.(check int) "cycles" 4 r.L.e_cycles
        | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
    case "enter/leave restores the caller's position" (fun () ->
        let lt = L.create () in
        L.set lt ~file:"a.mj" ~line:1;
        L.enter lt;
        L.set lt ~file:"a.mj" ~line:9;
        L.charge lt 3;
        L.leave lt;
        (* post-call charge lands on the caller's line, not line 9 *)
        L.charge lt 2;
        let find line =
          List.find (fun r -> r.L.e_line = line) (L.rows lt)
        in
        Alcotest.(check int) "callee" 3 (find 9).L.e_cycles;
        Alcotest.(check int) "caller" 2 (find 1).L.e_cycles);
    case "unbalanced leave is ignored" (fun () ->
        let lt = L.create () in
        L.leave lt;
        L.set lt ~file:"a.mj" ~line:2;
        L.charge lt 1;
        Alcotest.(check int) "total" 1 (L.total lt));
    case "allocs and traps count without charging cycles" (fun () ->
        let lt = L.create () in
        L.set lt ~file:"a.mj" ~line:5;
        L.alloc lt ~words:8;
        L.trap lt;
        Alcotest.(check int) "no cycles" 0 (L.total lt);
        match L.rows lt with
        | [ r ] ->
            Alcotest.(check int) "allocs" 1 r.L.e_allocs;
            Alcotest.(check int) "words" 8 r.L.e_alloc_words;
            Alcotest.(check int) "traps" 1 r.L.e_traps
        | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
    case "by_cycles sorts descending" (fun () ->
        let lt = L.create () in
        L.set lt ~file:"a.mj" ~line:1;
        L.charge lt 5;
        L.set lt ~file:"a.mj" ~line:2;
        L.charge lt 50;
        L.set lt ~file:"a.mj" ~line:3;
        L.charge lt 20;
        Alcotest.(check (list int))
          "order" [ 2; 3; 1 ]
          (List.map (fun r -> r.L.e_line) (L.by_cycles lt))) ]

(* ------------------------------------------------------------------ *)
(* Line tables: compiler emission, serialization, optimizer remapping  *)
(* ------------------------------------------------------------------ *)

let check_src src = Mj.Typecheck.check_source ~file:"t.mj" src

let loop_src =
  {|class Main {
  static int acc = 0;
  static int work(int n) {
    int[] buf = new int[4];
    for (int i = 0; i < n; i = i + 1) {
      buf[i - i / 4 * 4] = i;
      acc = acc + buf[i - i / 4 * 4] * i;
    }
    return acc;
  }
  public static void main() {
    System.out.println(Main.work(10));
  }
}|}

let compiled_methods src =
  Mj_bytecode.Compile.sorted_methods
    (Mj_bytecode.Compile.compile (check_src src))

let assert_table_well_formed mc =
  let open Mj_bytecode.Instr in
  let lines = mc.mc_lines in
  Array.iteri
    (fun i (pc, _) ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%s.%s entry %d pc increasing" mc.mc_class mc.mc_name
             i)
          true
          (pc > fst lines.(i - 1));
      Alcotest.(check bool)
        (Printf.sprintf "%s.%s entry %d pc in range" mc.mc_class mc.mc_name i)
        true
        (pc >= 0 && pc < Array.length mc.mc_code))
    lines

let linetable_tests =
  [ case "compiler emits sorted in-range line tables" (fun () ->
        let methods = compiled_methods loop_src in
        Alcotest.(check bool) "has methods" true (methods <> []);
        List.iter assert_table_well_formed methods;
        (* user methods with code carry at least one entry *)
        List.iter
          (fun mc ->
            let open Mj_bytecode.Instr in
            if mc.mc_class = "Main" && Array.length mc.mc_code > 1 then
              Alcotest.(check bool)
                (mc.mc_name ^ " has line info")
                true
                (Array.length mc.mc_lines > 0))
          methods);
    case "line_at resolves each table entry and dummy before the first"
      (fun () ->
        let open Mj_bytecode.Instr in
        List.iter
          (fun mc ->
            Array.iter
              (fun (pc, loc) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s pc %d" mc.mc_name pc)
                  true
                  (line_at mc pc = loc))
              mc.mc_lines;
            if Array.length mc.mc_lines > 0 && fst mc.mc_lines.(0) > 0 then
              Alcotest.(check bool)
                (mc.mc_name ^ " dummy before first entry")
                true
                (Mj.Loc.is_dummy (line_at mc 0)))
          (compiled_methods loop_src));
    case "expand_lines covers every pc consistently" (fun () ->
        let open Mj_bytecode.Instr in
        List.iter
          (fun mc ->
            let locs = expand_lines mc in
            Alcotest.(check int)
              (mc.mc_name ^ " one loc per instruction")
              (Array.length mc.mc_code) (Array.length locs);
            Array.iteri
              (fun pc loc ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s pc %d agrees" mc.mc_name pc)
                  true
                  (line_at mc pc = loc))
              locs)
          (compiled_methods loop_src));
    case "classfile round-trip preserves the line table" (fun () ->
        List.iter
          (fun mc ->
            let decoded =
              Mj_bytecode.Classfile.decode_method
                (Mj_bytecode.Classfile.encode_method mc)
            in
            Alcotest.(check bool)
              (mc.Mj_bytecode.Instr.mc_name ^ " lines survive")
              true
              (decoded.Mj_bytecode.Instr.mc_lines
              = mc.Mj_bytecode.Instr.mc_lines);
            Alcotest.(check bool)
              (mc.Mj_bytecode.Instr.mc_name ^ " full method equal")
              true (decoded = mc))
          (compiled_methods loop_src));
    case "optimizer keeps line tables sorted, in range, and anchored"
      (fun () ->
        List.iter
          (fun mc ->
            let mc' = Mj_bytecode.Optimize.method_code mc in
            assert_table_well_formed mc';
            let open Mj_bytecode.Instr in
            if Array.length mc.mc_lines > 0 then begin
              Alcotest.(check bool)
                (mc.mc_name ^ " keeps line info")
                true
                (Array.length mc'.mc_lines > 0);
              (* the entry line of the method survives optimization *)
              let first (m : method_code) =
                (snd m.mc_lines.(0)).Mj.Loc.start_pos.Mj.Loc.line
              in
              Alcotest.(check int)
                (mc.mc_name ^ " first line kept")
                (first mc) (first mc')
            end)
          (compiled_methods loop_src)) ]

(* ------------------------------------------------------------------ *)
(* Per-line reconciliation on all three engines                        *)
(* ------------------------------------------------------------------ *)

let run_with_lines engine src =
  let checked = check_src src in
  let lt = L.create () in
  let cycles =
    match engine with
    | `Interp ->
        let s = Mj_runtime.Interp.create ~lines:lt checked in
        Mj_runtime.Interp.run_main s "Main";
        Mj_runtime.Interp.cycles s
    | `Vm ->
        let s =
          Mj_bytecode.Vm.create ~lines:lt
            (Mj_bytecode.Compile.compile checked)
        in
        Mj_bytecode.Vm.run_main s "Main";
        Mj_bytecode.Vm.cycles s
    | `Jit ->
        let s =
          Mj_bytecode.Jit.create ~lines:lt
            (Mj_bytecode.Compile.compile checked)
        in
        Mj_bytecode.Jit.run_main s "Main";
        Mj_bytecode.Jit.cycles s
  in
  (lt, cycles)

let engine_name = function `Interp -> "interp" | `Vm -> "vm" | `Jit -> "jit"

let reconcile_tests =
  List.map
    (fun engine ->
      case
        (Printf.sprintf "line totals reconcile with Cost.cycles (%s)"
           (engine_name engine))
        (fun () ->
          let lt, cycles = run_with_lines engine loop_src in
          Alcotest.(check int) "exact" cycles (L.total lt);
          Alcotest.(check bool) "ran" true (cycles > 0);
          (* the loop body lines carry most of the work *)
          let body =
            List.filter
              (fun r -> r.L.e_file = "t.mj" && r.L.e_line >= 5 && r.L.e_line <= 8)
              (L.rows lt)
          in
          Alcotest.(check bool) "loop lines attributed" true
            (List.exists (fun r -> r.L.e_cycles > 0) body)))
    [ `Interp; `Vm; `Jit ]
  @ [ case "line profiling does not change modeled cycles" (fun () ->
          List.iter
            (fun engine ->
              let _, with_lines = run_with_lines engine loop_src in
              let without =
                let checked = check_src loop_src in
                match engine with
                | `Interp ->
                    let s = Mj_runtime.Interp.create checked in
                    Mj_runtime.Interp.run_main s "Main";
                    Mj_runtime.Interp.cycles s
                | `Vm ->
                    let s =
                      Mj_bytecode.Vm.create
                        (Mj_bytecode.Compile.compile checked)
                    in
                    Mj_bytecode.Vm.run_main s "Main";
                    Mj_bytecode.Vm.cycles s
                | `Jit ->
                    let s =
                      Mj_bytecode.Jit.create
                        (Mj_bytecode.Compile.compile checked)
                    in
                    Mj_bytecode.Jit.run_main s "Main";
                    Mj_bytecode.Jit.cycles s
              in
              Alcotest.(check int) (engine_name engine) without with_lines)
            [ `Interp; `Vm; `Jit ]);
      case "bounds trap is attributed to the faulting line" (fun () ->
          let src =
            {|class Main {
  public static void main() {
    int[] a = new int[2];
    a[5] = 1;
  }
}|}
          in
          List.iter
            (fun engine ->
              let checked = check_src src in
              let lt = L.create () in
              let faulted =
                match engine with
                | `Interp -> (
                    let s = Mj_runtime.Interp.create ~lines:lt checked in
                    try
                      Mj_runtime.Interp.run_main s "Main";
                      false
                    with Mj_runtime.Heap.Runtime_error _ -> true)
                | `Vm -> (
                    let s =
                      Mj_bytecode.Vm.create ~lines:lt
                        (Mj_bytecode.Compile.compile checked)
                    in
                    try
                      Mj_bytecode.Vm.run_main s "Main";
                      false
                    with Mj_runtime.Heap.Runtime_error _ -> true)
              in
              Alcotest.(check bool)
                (engine_name (engine :> [ `Interp | `Vm | `Jit ]) ^ " trapped")
                true faulted;
              match
                List.find_opt (fun r -> r.L.e_traps > 0) (L.rows lt)
              with
              | Some r -> Alcotest.(check int) "line 4" 4 r.L.e_line
              | None -> Alcotest.fail "no trap row recorded")
            [ `Interp; `Vm ]) ]

(* ------------------------------------------------------------------ *)
(* Flamegraph export                                                   *)
(* ------------------------------------------------------------------ *)

let flame_tests =
  [ case "collapse computes self weights over nested spans" (fun () ->
        let reg = R.create () in
        R.enter reg ~cat:"method" "A.main";
        R.enter reg ~cat:"method" "A.helper";
        R.exit reg ();
        R.exit reg ();
        let rows = F.collapse reg in
        (* default clock ticks once per event: main spans 3, helper 1 *)
        Alcotest.(check (list (pair string int)))
          "rows"
          [ ("A.main", 2); ("A.main;A.helper", 1) ]
          rows);
    case "parent chains skip spans of other categories" (fun () ->
        let reg = R.create () in
        R.enter reg ~cat:"method" "A.main";
        R.enter reg ~cat:"phase" "gc";
        R.enter reg ~cat:"method" "A.inner";
        R.exit reg ();
        R.exit reg ();
        R.exit reg ();
        let stacks = List.map fst (F.collapse reg) in
        Alcotest.(check bool)
          "inner folds under main" true
          (List.mem "A.main;A.inner" stacks));
    case "to_string/parse round-trips" (fun () ->
        let rows = [ ("a;b", 12); ("a;c c", 3); ("a", 7) ] in
        Alcotest.(check (list (pair string int)))
          "round trip" rows
          (F.parse (F.to_string rows)));
    case "parse rejects malformed lines" (fun () ->
        match F.parse "nonumberhere" with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected Failure");
    case "flame totals match the flat profile's self cycles" (fun () ->
        let checked = check_src loop_src in
        let reg = R.create () in
        let profile = P.create ~spans:reg () in
        let s =
          Mj_bytecode.Vm.create ~profile (Mj_bytecode.Compile.compile checked)
        in
        Mj_bytecode.Vm.run_main s "Main";
        let rows = F.collapse reg in
        Alcotest.(check bool) "nonempty" true (rows <> []);
        let leaf_sum = Hashtbl.create 16 in
        List.iter
          (fun (stack, w) ->
            let leaf =
              match String.rindex_opt stack ';' with
              | None -> stack
              | Some i -> String.sub stack (i + 1) (String.length stack - i - 1)
            in
            Hashtbl.replace leaf_sum leaf
              (w + Option.value ~default:0 (Hashtbl.find_opt leaf_sum leaf)))
          rows;
        List.iter
          (fun r ->
            if r.P.r_label <> "<toplevel>" then
              Alcotest.(check int)
                (r.P.r_label ^ " self")
                r.P.r_self
                (Option.value ~default:0 (Hashtbl.find_opt leaf_sum r.P.r_label)))
          (P.rows profile)) ]

(* ------------------------------------------------------------------ *)
(* Refinement provenance                                               *)
(* ------------------------------------------------------------------ *)

let provenance_tests =
  [ case "diff narrows a changed method body to the differing span"
      (fun () ->
        let parse src = Mj.Parser.parse_program ~file:"d.mj" src in
        let before =
          parse
            "class A { int f; void m() { int x = 1; int y = 2; int z = 3; } }"
        in
        let after =
          parse
            "class A { int f; void m() { int x = 1; int y = 9; int z = 3; } }"
        in
        match Javatime.Provenance.diff_program ~before ~after with
        | [ c ] ->
            let open Javatime.Provenance in
            Alcotest.(check string) "class" "A" c.ch_class;
            Alcotest.(check string) "site" "method m" c.ch_site;
            Alcotest.(check bool) "before mentions y = 2" true
              (String.length c.ch_before > 0
              && String.index_opt c.ch_before '2' <> None);
            Alcotest.(check bool) "after mentions 9" true
              (String.index_opt c.ch_after '9' <> None);
            Alcotest.(check bool) "loc is real" true
              (not (Mj.Loc.is_dummy c.ch_loc))
        | cs -> Alcotest.failf "expected 1 change, got %d" (List.length cs));
    case "diff reports added fields and identical programs as empty"
      (fun () ->
        let parse src = Mj.Parser.parse_program ~file:"d.mj" src in
        let a = parse "class A { void m() { } }" in
        let b = parse "class A { int g; void m() { } }" in
        Alcotest.(check int)
          "identical" 0
          (List.length (Javatime.Provenance.diff_program ~before:a ~after:a));
        match Javatime.Provenance.diff_program ~before:a ~after:b with
        | [ c ] ->
            Alcotest.(check string) "site" "field g"
              c.Javatime.Provenance.ch_site;
            Alcotest.(check string) "no before" ""
              c.Javatime.Provenance.ch_before
        | cs -> Alcotest.failf "expected 1 change, got %d" (List.length cs));
    case "refine ~provenance audits every applied transform" (fun () ->
        let outcome =
          Javatime.Engine.refine_source ~file:"fir.mj" ~provenance:true
            Workloads.Fir_mj.unrestricted_source
        in
        match outcome.Javatime.Engine.provenance with
        | None -> Alcotest.fail "provenance missing"
        | Some p ->
            let open Javatime.Provenance in
            Alcotest.(check bool) "compliant" true p.p_compliant;
            let applied =
              List.concat_map
                (fun s ->
                  List.map
                    (fun a -> a.Javatime.Engine.a_transform)
                    s.Javatime.Engine.applied)
                outcome.Javatime.Engine.steps
            in
            let audited =
              List.filter_map (fun it -> it.it_transform) p.p_iterations
            in
            Alcotest.(check (list string))
              "every applied transform audited" applied audited;
            List.iter
              (fun it ->
                if it.it_transform <> None then begin
                  Alcotest.(check bool) "has changes" true (it.it_changes <> []);
                  List.iter
                    (fun c ->
                      if c.ch_before <> "" then
                        Alcotest.(check string)
                          "replaced code carries a source loc" "fir.mj"
                          c.ch_loc.Mj.Loc.file)
                    it.it_changes
                end)
              p.p_iterations;
            Alcotest.(check string)
              "final text pretty-prints the refined program"
              (Mj.Pretty.program_to_string outcome.Javatime.Engine.final)
              p.p_final);
    case "refine without provenance records none" (fun () ->
        let outcome =
          Javatime.Engine.refine_source ~file:"fir.mj"
            Workloads.Fir_mj.unrestricted_source
        in
        Alcotest.(check bool)
          "absent" true
          (outcome.Javatime.Engine.provenance = None));
    case "provenance JSON is parseable and lists iterations" (fun () ->
        let outcome =
          Javatime.Engine.refine_source ~file:"fir.mj" ~provenance:true
            Workloads.Fir_mj.unrestricted_source
        in
        match outcome.Javatime.Engine.provenance with
        | None -> Alcotest.fail "provenance missing"
        | Some p -> (
            let text = J.to_string (Javatime.Provenance.to_json p) in
            match J.parse text with
            | parsed -> (
                (match J.member "compliant" parsed with
                | Some (J.Bool true) -> ()
                | _ -> Alcotest.fail "compliant flag");
                match J.member "iterations" parsed with
                | Some (J.List its) ->
                    Alcotest.(check int)
                      "iteration count"
                      (List.length p.Javatime.Provenance.p_iterations)
                      (List.length its)
                | _ -> Alcotest.fail "iterations list")
            | exception J.Parse_error msg -> Alcotest.fail msg)) ]

(* ------------------------------------------------------------------ *)
(* R10 race reports carry racing read and write locations              *)
(* ------------------------------------------------------------------ *)

let race_related_tests =
  [ case "R10 head violation links a racing write and read" (fun () ->
        let checked =
          Mj.Typecheck.check_source ~file:"fig8.mj"
            Workloads.Fig8_mj.threaded_source
        in
        let heads =
          List.filter
            (fun v ->
              v.Policy.Rule.rule_id = "R10-no-shared-field-races"
              && v.Policy.Rule.related <> [])
            (Policy.Asr_policy.check checked)
        in
        Alcotest.(check bool) "at least one head report" true (heads <> []);
        List.iter
          (fun v ->
            let roles = List.map fst v.Policy.Rule.related in
            Alcotest.(check bool) "has write" true (List.mem "write" roles);
            Alcotest.(check bool) "has read" true (List.mem "read" roles);
            List.iter
              (fun (role, loc) ->
                Alcotest.(check bool) (role ^ " loc is real") true
                  (not (Mj.Loc.is_dummy loc));
                Alcotest.(check string) (role ^ " loc file") "fig8.mj"
                  loc.Mj.Loc.file)
              v.Policy.Rule.related)
          heads);
    case "check --json carries the related sites" (fun () ->
        let checked =
          Mj.Typecheck.check_source ~file:"fig8.mj"
            Workloads.Fig8_mj.threaded_source
        in
        let text =
          Policy.Rule.report_to_json (Policy.Asr_policy.check checked)
        in
        match J.parse text with
        | exception J.Parse_error msg -> Alcotest.fail msg
        | parsed -> (
            match J.member "violations" parsed with
            | Some (J.List vs) ->
                let has_role role v =
                  match J.member "related" v with
                  | Some (J.List rel) ->
                      List.exists
                        (fun r -> J.member "role" r = Some (J.Str role))
                        rel
                  | _ -> false
                in
                Alcotest.(check bool)
                  "some violation links write and read" true
                  (List.exists
                     (fun v -> has_role "write" v && has_role "read" v)
                     vs)
            | _ -> Alcotest.fail "violations list missing")) ]

(* ------------------------------------------------------------------ *)
(* Json edge cases                                                     *)
(* ------------------------------------------------------------------ *)

let json_edge_tests =
  [ case "control characters round-trip through \\u escapes" (fun () ->
        let s = "a\x01b\x02\x1fc\nd\te\rf" in
        let text = J.to_string (J.Str s) in
        Alcotest.(check bool) "escaped" true
          (String.index_opt text '\x01' = None);
        Alcotest.(check bool)
          "round trip" true
          (J.parse text = J.Str s));
    case "non-ASCII bytes pass through unescaped" (fun () ->
        let s = "caf\xc3\xa9 \xe2\x86\x92" in
        Alcotest.(check bool)
          "round trip" true
          (J.parse (J.to_string (J.Str s)) = J.Str s));
    case "\\u escapes decode ASCII and flatten the rest" (fun () ->
        Alcotest.(check bool) "A" true (J.parse {|"\u0041"|} = J.Str "A");
        Alcotest.(check bool) "NUL" true
          (J.parse {|"\u0000"|} = J.Str "\x00");
        (* outside the byte-transparent subset: documented '?' fallback *)
        Alcotest.(check bool) "e-acute" true (J.parse {|"\u00e9"|} = J.Str "?"));
    case "deeply nested arrays round-trip" (fun () ->
        let deep = ref (J.Int 1) in
        for _ = 1 to 500 do
          deep := J.List [ !deep ]
        done;
        Alcotest.(check bool)
          "round trip" true
          (J.parse (J.to_string !deep) = !deep));
    case "duplicate object keys are preserved, member takes the first"
      (fun () ->
        match J.parse {|{"a":1,"a":2,"b":3}|} with
        | J.Obj kvs as parsed ->
            Alcotest.(check int) "both kept" 3 (List.length kvs);
            Alcotest.(check bool)
              "member takes first" true
              (J.member "a" parsed = Some (J.Int 1))
        | _ -> Alcotest.fail "expected object");
    case "float edge cases serialize valid JSON deterministically"
      (fun () ->
        (* nan and infinities have no JSON spelling: documented "0" *)
        List.iter
          (fun f ->
            Alcotest.(check string)
              "non-finite flattens" "0"
              (J.to_string (J.Float f)))
          [ nan; infinity; neg_infinity ];
        (* negative zero keeps its sign through a round trip *)
        (match J.parse (J.to_string (J.Float (-0.0))) with
        | J.Float z ->
            Alcotest.(check bool)
              "sign preserved" true
              (1.0 /. z = neg_infinity)
        | _ -> Alcotest.fail "expected a float");
        (* extreme magnitudes round-trip exactly *)
        List.iter
          (fun f ->
            match J.parse (J.to_string (J.Float f)) with
            | J.Float g ->
                Alcotest.(check bool)
                  (Printf.sprintf "%h round-trips" f)
                  true (f = g)
            | J.Int n ->
                Alcotest.(check bool)
                  (Printf.sprintf "%h as int" f)
                  true
                  (float_of_int n = f)
            | _ -> Alcotest.failf "%h parsed to a non-number" f)
          [ 1e300; 5e-324; 0.1; 1e15; 1e15 -. 1.0 ]);
    case "reject paths report an offset" (fun () ->
        let expect_error text =
          match J.parse text with
          | exception J.Parse_error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%S mentions offset" text)
                true
                (String.length msg > 0
                &&
                let has_offset =
                  let sub = "at offset" in
                  let n = String.length sub and m = String.length msg in
                  let rec go i =
                    i + n <= m && (String.sub msg i n = sub || go (i + 1))
                  in
                  go 0
                in
                has_offset)
          | v -> Alcotest.failf "%S parsed as %s" text (J.to_string v)
        in
        List.iter expect_error
          [ "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "\"bad \\q escape\"";
            "[1] trailing"; "\"\\u00\""; "" ]) ]

(* ------------------------------------------------------------------ *)
(* dropped_spans surfaces in every exporter                            *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let dropped_tests =
  [ case "overflowing max_spans is reported by every exporter" (fun () ->
        let reg = R.create ~max_spans:2 () in
        for _ = 1 to 5 do
          R.enter reg "s";
          R.exit reg ()
        done;
        Alcotest.(check int) "dropped" 3 (R.dropped_spans reg);
        Alcotest.(check bool)
          "table footer" true
          (contains ~sub:"3 spans dropped" (Telemetry.Export.table reg));
        (match J.member "dropped_spans" (Telemetry.Export.json reg) with
        | Some (J.Int 3) -> ()
        | _ -> Alcotest.fail "json dump missing dropped_spans");
        match J.parse (Telemetry.Export.chrome_trace reg) with
        | exception J.Parse_error msg -> Alcotest.fail msg
        | parsed -> (
            match J.member "metadata" parsed with
            | Some meta -> (
                match J.member "dropped_spans" meta with
                | Some (J.Int 3) -> ()
                | _ -> Alcotest.fail "chrome metadata missing dropped_spans")
            | None -> Alcotest.fail "chrome trace missing metadata"));
    case "no drops reports zero everywhere" (fun () ->
        let reg = R.create () in
        R.enter reg "only";
        R.exit reg ();
        Alcotest.(check bool)
          "no footer" true
          (not (contains ~sub:"dropped" (Telemetry.Export.table reg)));
        match J.member "dropped_spans" (Telemetry.Export.json reg) with
        | Some (J.Int 0) -> ()
        | _ -> Alcotest.fail "json dump should carry 0");
    case "a saturated counter is flagged by every exporter" (fun () ->
        let reg = R.create () in
        R.count reg "hot" 1;
        R.count reg "cold" 1;
        (* drive the counter to the clamp the way a long campaign would,
           without iterating max_int times *)
        (match List.find_opt (fun c -> c.R.c_name = "hot") (R.counters reg) with
        | Some c -> c.R.c_value <- max_int - 2
        | None -> Alcotest.fail "counter missing");
        R.count reg "hot" 5;
        Alcotest.(check bool)
          "clamped, not wrapped" true
          ((List.find (fun c -> c.R.c_name = "hot") (R.counters reg)).R.c_value
          = max_int);
        Alcotest.(check (list string))
          "flag names the counter" [ "hot" ]
          (R.saturated_counters reg);
        Alcotest.(check bool)
          "table names it" true
          (contains ~sub:"counter hot saturated" (Telemetry.Export.table reg));
        (match J.member "data_loss" (Telemetry.Export.json reg) with
        | Some dl -> (
            match J.member "saturated_counters" dl with
            | Some (J.List [ J.Str "hot" ]) -> ()
            | _ -> Alcotest.fail "json data_loss missing the counter")
        | None -> Alcotest.fail "json dump missing data_loss");
        match J.parse (Telemetry.Export.chrome_trace reg) with
        | exception J.Parse_error msg -> Alcotest.fail msg
        | parsed -> (
            match J.member "metadata" parsed with
            | Some meta -> (
                match J.member "saturated_counters" meta with
                | Some (J.List [ J.Str "hot" ]) -> ()
                | _ -> Alcotest.fail "chrome metadata missing the counter")
            | None -> Alcotest.fail "chrome trace missing metadata"));
    case "no saturation reports an empty flag set" (fun () ->
        let reg = R.create () in
        R.count reg "n" 3;
        Alcotest.(check (list string)) "none" [] (R.saturated_counters reg);
        Alcotest.(check bool)
          "no table line" true
          (not (contains ~sub:"saturated" (Telemetry.Export.table reg)))) ]

let suite =
  lines_tests @ linetable_tests @ reconcile_tests @ flame_tests
  @ provenance_tests @ race_related_tests @ json_edge_tests @ dropped_tests
