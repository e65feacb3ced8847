(** Closure backend — the analogue of a late-90s JIT compiler.

    Each bytecode method is checked by {!Verify} when a call first
    resolves to it, and translated once, on its first call, into trees
    of OCaml closures: the operand stack is resolved at translation
    time, slots live unboxed in the lanes the verifier typed them in,
    and call, field and static sites are linked to their targets
    (DESIGN.md §2a). Charges happen in bytecode order, so results,
    cycles and profiles match a stack machine with the same tariff, with
    six exceptions: the JIT charges nothing for [ineg], [dneg], [bnot],
    [i2d] and [d2i], which the VM charges [arith], nor for
    [arraylength], which the VM charges [field]. Otherwise only the
    speed and the cost tariff differ from {!Vm}. *)

type t

val create :
  ?profile:Telemetry.Profile.t ->
  ?lines:Telemetry.Lines.t ->
  ?elide:(Mj.Loc.t, unit) Hashtbl.t ->
  Mj.Typecheck.checked ->
  t
(** Charges {!Mj_runtime.Cost.jit_tariff}. [profile]
    observes every cycle from creation on; [lines] receives per-source-line
    attribution from positions fixed at translate time (one branch per
    charging node when no table is attached). *)

val of_image : ?profile:Telemetry.Profile.t -> Compile.image -> t
(** Same, reusing a precompiled image. *)

val machine : t -> Mj_runtime.Machine.t

val cycles : t -> int

val output : t -> string

val new_instance : t -> string -> Mj_runtime.Value.t list -> Mj_runtime.Value.t

val call : t -> Mj_runtime.Value.t -> string -> Mj_runtime.Value.t list -> Mj_runtime.Value.t

val call_static : t -> string -> string -> Mj_runtime.Value.t list -> Mj_runtime.Value.t

val run_main : t -> string -> unit

val compiled_methods : t -> int
(** Number of methods translated so far (lazy, per first call). *)
