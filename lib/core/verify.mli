(** Mechanized refinement checking (paper §2: each refinement step must
    preserve the design's meaning).

    Two cooperating layers. Layer 1 discharges static {e verification
    conditions}: for every transform the engine applied, the checked
    programs before and after it, recorded in the {!Provenance} chain,
    are checked for a
    simulation relation by {!Analysis.Refinement}, and the final
    program's thread elimination is justified by a race-free report.
    Layer 2 checks {e trace correspondence}: an abstraction function
    maps unrestricted-MJ execution traces under seeded thread schedules
    to ASR instant streams, which must coincide with the deterministic
    instant stream of the refined program under every fixpoint
    strategy.

    Soundness caveat: a failed VC or correspondence is a genuine
    counterexample to refinement (modulo the interval abstraction);
    passing checks cover the catalogued rewrite shapes only, and every
    interleaving only when the correspondence is [c_exhaustive] —
    otherwise just the seeded schedules. *)

(** {1 Layer 1: verification conditions} *)

type vc_step = {
  s_iteration : int;        (** provenance iteration index *)
  s_transform : string;     (** transform id that fired *)
  s_vcs : Analysis.Refinement.vc list;
}

type vc_report = {
  v_steps : vc_step list;
  v_races : Analysis.Refinement.vc;
      (** thread-elimination VC on the final program *)
  v_discharged : int;
  v_failed : int;
}

val all_vcs : vc_report -> Analysis.Refinement.vc list
(** Per-step VCs in chain order, then the race VC. *)

val check_program :
  ?catalogue:Transforms.t list ->
  Mj.Ast.program ->
  vc_report * Engine.outcome
(** Refine with provenance and discharge every step's VCs.
    [catalogue] is the mutation-testing hook of {!Engine.refine}. *)

val refinement_rule : Policy.Rule.t
(** Blocking rule wrapping {!check_program}. NOT part of
    {!Policy.Asr_policy.rules} — the engine re-checks that policy each
    iteration and a rule that itself runs the engine would recurse; the
    CLI composes it into [javatime check] on top of the policy report. *)

val violations_of_report : vc_report -> Policy.Rule.violation list
(** Failing VCs as blocking violations; the after-span is the primary
    location, the before-span rides in [related]. *)

(** {1 Layer 2: trace correspondence} *)

val ramp : int -> int -> int
(** [ramp t i] — the deterministic scalar input applied to port [i] at
    instant [t], shared with [javatime simulate]. *)

val input_kinds :
  Mj.Typecheck.checked -> cls:string -> n_in:int -> bool array
(** Which input ports carry arrays ([readPortArray] sites with constant
    port indices in the code the class's [run] can reach). *)

val make_inputs :
  kinds:bool array -> array_size:int -> int -> int -> Asr.Domain.t
(** [make_inputs ~kinds ~array_size t i]: the deterministic input for
    port [i] at instant [t] — {!ramp} for scalar ports, a pixel-like
    array of [array_size] elements for array ports. *)

val calibrate_array_size :
  ?engine:Elaborate.engine ->
  kinds:bool array ->
  Mj.Typecheck.checked ->
  cls:string ->
  int
(** Smallest power-of-two array length a throwaway reaction accepts
    without an out-of-bounds trap (array sizes are design constants —
    e.g. WIDTH * HEIGHT — invisible to the port declaration). *)

val abstract_outputs :
  n_out:int -> Mj_runtime.Threads.event list -> Asr.Domain.t array
(** The abstraction function α: the last recorded write per output port
    defines the instant's value; unwritten ports are ⊥. *)

val spec_stream :
  ?inputs:(int -> int -> Asr.Domain.t) ->
  strategy:Asr.Fixpoint.strategy ->
  instants:int ->
  Mj.Typecheck.checked ->
  cls:string ->
  Asr.Domain.t array list
(** Instant stream of [cls] elaborated on the VM as a one-block ASR
    system on the input ramp. The block is the re-applicable embedding
    ({!Elaborate.to_reapplicable_block}), so every strategy — chaotic
    iteration included — sees single-application semantics even for
    stateful reactions (e.g. a filter window surviving between
    applications). *)

val low_stream :
  ?inputs:(int -> int -> Asr.Domain.t) ->
  seed:int ->
  instants:int ->
  Mj.Typecheck.checked ->
  cls:string ->
  Asr.Domain.t array list
(** α-image of one seeded schedule of the (unrestricted) program, run
    on the VM. *)

type correspondence = {
  c_schedules : int;          (** seeded schedules covered *)
  c_executed : int;           (** seeded schedules actually run *)
  c_exhaustive : bool;
      (** no executed run had a scheduling choice, so the single run
          covers every interleaving of the bounded program *)
  c_instants : int;
  c_strategies : string list;
  c_checked : int;            (** correspondences checked *)
  c_failures : string list;   (** empty iff every trace refines the stream *)
}

val coverage : correspondence -> string
(** ["exhaustive"] when [c_exhaustive], else ["sampled"]. *)

val trace_correspondence :
  ?schedules:int ->
  ?instants:int ->
  ?array_size:int ->
  Mj.Ast.program ->
  cls:string ->
  correspondence
(** Refine the program, then check that the refined instant stream
    agrees under all four fixpoint strategies (chaotic, scheduled,
    worklist, fused — chaotic is sound here because {!spec_stream}
    uses the re-applicable embedding), and that the α-image of each of
    [schedules] (default 100) seeded low-level schedules of the
    {e unrestricted} program coincides with it, over [instants]
    (default 8) ramp instants.

    Seed 1 is run first. If no pick of any of its instants had two
    runnable threads ({!Mj_runtime.Threads.last_run_branched}), the
    execution is seed-independent and its α-stream (or exception)
    stands for seeds 2..N, which are not run again; otherwise every
    seed is run. Either way each seed is counted in [c_checked] and
    reported in [c_failures] on its own, exactly as if it had run. *)
