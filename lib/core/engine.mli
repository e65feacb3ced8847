(** The successive, formal refinement engine (paper §2, Fig. 2).

    Iterates analyze → suggest → transform: the program is checked
    against the ASR policy of use; violations carrying automatic fixes
    trigger the corresponding catalogue transformations; the result is
    re-checked, until the program complies or only manual fixes remain.
    Every iteration is recorded — the trace is the Fig. 2 story. *)

type applied = { a_transform : string; a_description : string; a_sites : int }

type step = {
  iteration : int;
  violations : Policy.Rule.violation list;  (** before this iteration's fixes *)
  applied : applied list;
}

type outcome = {
  initial : Mj.Ast.program;
  final : Mj.Ast.program;      (** resolved; pretty-prints to valid MJ *)
  checked : Mj.Typecheck.checked;
  steps : step list;
  compliant : bool;
  residual : Policy.Rule.violation list;  (** violations needing manual work *)
  provenance : Provenance.t option;
      (** full audit trail, present iff [refine ~provenance:true] *)
}

val dedup : string list -> string list
(** Remove duplicates preserving first-occurrence order (the order
    automatic fixes were suggested in). Exposed for tests. *)

val refine :
  ?max_iterations:int ->
  ?policy:Policy.Rule.t list ->
  ?catalogue:Transforms.t list ->
  ?telemetry:Telemetry.Registry.t ->
  ?provenance:bool ->
  Mj.Ast.program ->
  outcome
(** Raises {!Mj.Diag.Compile_error} if the program does not type-check
    (initially or — a bug — after a transformation). Default
    [max_iterations] is 20; default [policy] is the ASR policy of use.
    Pass {!Policy.Sdf_policy.rules} to refine toward the dataflow model
    instead — the paper's "variety of target models, each with its own
    policy of use".

    [catalogue] (default {!Transforms.catalogue}) substitutes the
    transform catalogue the wanted automatic fixes are drawn from. The
    refinement checker's mutation tests use this to inject a
    deliberately broken transform and assert its verification
    conditions fail; it is not a user-facing extension point.

    [telemetry]: each iteration emits an ["iteration"] span containing
    one ["check.<rule>"] span per policy rule (args: violation count —
    rule timings come from the registry clock) and one
    ["apply.<transform>"] span per attempted transformation (args: site
    count); counters ["refine.iterations"] and
    ["transform.<id>.sites"] accumulate across the run.

    [provenance] (default off) additionally records, per iteration, the
    outstanding violations and a source-level diff of what the applied
    transformation changed — see {!Provenance}. *)

val refine_source :
  ?file:string ->
  ?telemetry:Telemetry.Registry.t ->
  ?provenance:bool ->
  string ->
  outcome

val pp_trace : Format.formatter -> outcome -> unit
(** Human-readable refinement trace. *)
