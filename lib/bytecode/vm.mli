(** Bytecode VM — the analogue of a late-90s JVM interpreter.

    Executes {!Compile.image} code against a shared {!Mj_runtime.Machine}
    state with per-instruction cost accounting, and participates in the
    {!Mj_runtime.Threads} scheduler at statement boundaries. A method is
    checked by {!Verify} when a call first resolves to it; its frames
    keep every slot unboxed in the lane the verifier typed it in
    (DESIGN.md §2b). *)

type t

val create :
  ?profile:Telemetry.Profile.t ->
  ?lines:Telemetry.Lines.t ->
  ?elide:(Mj.Loc.t, unit) Hashtbl.t ->
  Mj.Typecheck.checked ->
  t
(** Compile the program, allocate machine state, run the static
    initializer, charging {!Mj_runtime.Cost.interpreter_tariff}.
    [profile] observes every cycle from creation on; [lines] likewise
    receives per-source-line attribution, driven by the compiled line
    tables ({!Instr.line_at}). *)

val of_image : ?profile:Telemetry.Profile.t -> Compile.image -> t
(** Same, reusing a precompiled image (compile once, run many). *)

val machine : t -> Mj_runtime.Machine.t

val image : t -> Compile.image

val cycles : t -> int

val output : t -> string

val new_instance : t -> string -> Mj_runtime.Value.t list -> Mj_runtime.Value.t

val call : t -> Mj_runtime.Value.t -> string -> Mj_runtime.Value.t list -> Mj_runtime.Value.t

val call_static : t -> string -> string -> Mj_runtime.Value.t list -> Mj_runtime.Value.t

val run_main : t -> string -> unit
