(** Per-transform verification conditions for the SFR engine.

    [Engine.refine] records the program before and after every transform
    it applies. {!check_transform} checks a simulation relation between
    the two ASTs — loop bounding preserves iteration-by-iteration state
    on the interval domain ({!Interval}), allocation hoisting preserves
    heap shape modulo the preallocated arena ({!Escape}), field
    privatization and finalizer removal are unobservable — so the
    provenance audit becomes a chain of checked correspondences.
    {!races_clean} justifies thread elimination with an {!Races}-clean
    report.

    Soundness caveat: the simulation argument lives on the interval
    domain over locals. Heap effects are compared structurally, and
    statement pairs the aligner cannot match are rejected rather than
    explored — the checker is sound for rejection but incomplete: a
    semantically correct transform written in an unexpected shape is
    refused, never silently accepted. *)

type vc = {
  vc_transform : string;  (** transform id, or ["thread-elimination"] *)
  vc_class : string;      (** class the site lives in *)
  vc_site : string;       (** human description of the rewrite site *)
  vc_before : Mj.Loc.t;   (** source span on the before side *)
  vc_after : Mj.Loc.t;    (** source span on the after side *)
  vc_ok : bool;           (** discharged? *)
  vc_detail : string;     (** why it is discharged, or why it failed *)
}

val check_transform :
  transform:string -> before:Facts.t -> after:Facts.t -> vc list
(** Verification conditions for one recorded engine iteration: one VC
    per recognized rewrite site, plus failing VCs for any difference
    between the two programs that the transform cannot have produced. A
    transform id with no catalogued VC yields a single failing VC.
    [before] and [after] are the two programs' analysis contexts, shared
    by every site of the step. *)

val races_clean : Mj.Typecheck.checked -> vc
(** The VC justifying thread elimination / sequentialization of the
    refined program: the static race detector must report no
    shared-field races. *)
