(* Shared helpers for the test suites. *)

let contains ~substring s =
  let n = String.length substring and m = String.length s in
  if n = 0 then true
  else
    let rec loop i = i + n <= m && (String.sub s i n = substring || loop (i + 1)) in
    loop 0

let check_src ?(file = "<test>") src = Mj.Typecheck.check_source ~file src

let parse ?(file = "<test>") src = Mj.Parser.parse_program ~file src

(* Console output of [cls]'s static main() under each engine. *)
let interp_output src cls =
  let session = Mj_runtime.Interp.create (check_src src) in
  Mj_runtime.Interp.run_main session cls;
  Mj_runtime.Interp.output session

let vm_output src cls =
  let session =
    Mj_bytecode.Vm.create
      (Mj_bytecode.Compile.compile (check_src src))
  in
  Mj_bytecode.Vm.run_main session cls;
  Mj_bytecode.Vm.output session

let jit_output src cls =
  let session =
    Mj_bytecode.Jit.create
      (Mj_bytecode.Compile.compile (check_src src))
  in
  Mj_bytecode.Jit.run_main session cls;
  Mj_bytecode.Jit.output session

(* Expect a compile error whose message contains [substring]. *)
let expect_compile_error ?(substring = "") src =
  match Mj.Typecheck.check_source ~file:"<test>" src with
  | (_ : Mj.Typecheck.checked) ->
      Alcotest.failf "expected a compile error (containing %S)" substring
  | exception Mj.Diag.Compile_error d ->
      if not (contains ~substring d.Mj.Diag.message) then
        Alcotest.failf "error %S does not mention %S" d.Mj.Diag.message substring

let expect_runtime_error ?(substring = "") f =
  match f () with
  | _ -> Alcotest.failf "expected a runtime error (containing %S)" substring
  | exception Mj_runtime.Heap.Runtime_error message ->
      if not (contains ~substring message) then
        Alcotest.failf "runtime error %S does not mention %S" message substring

let case name f = Alcotest.test_case name `Quick f

(* Every qcheck property runs from a pinned seed so a CI failure
   reproduces locally bit-for-bit; QCHECK_SEED overrides it to explore
   other parts of the space. The seed in effect is printed when a
   property fails. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> 0x5eed)
  | None -> 0x5eed

let qcase ?(count = 100) name gen prop =
  let rand = Random.State.make [| qcheck_seed |] in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand (QCheck.Test.make ~count ~name gen prop)
  in
  let run args =
    try run args
    with e ->
      Printf.eprintf
        "qcheck failure in %S under deterministic seed %d; rerun with \
         QCHECK_SEED=%d (or another seed) to reproduce or explore\n\
         %!"
        name qcheck_seed qcheck_seed;
      raise e
  in
  (name, speed, run)

(* A tiny ASR harness: one int input port, one int output port. *)
let react_int elab x =
  match Javatime.Elaborate.react elab [| Asr.Domain.int x |] with
  | [| v |] -> Option.get (Asr.Domain.to_int v)
  | outs -> Alcotest.failf "expected 1 output, got %d" (Array.length outs)

(* A design whose ASR class only inherits its reaction: Derived declares
   a constructor and nothing else, so its run method, its port
   signature and its state are all Base's. *)
let inherited_src =
  {|class Base extends ASR {
      private int count;
      Base() { declarePorts(1, 1); count = 0; }
      public void run() {
        count = count + 1;
        writePort(0, readPort(0) + count);
      }
    }
    class Derived extends Base {
      Derived() { super(); }
    }|}
