(** Refinement provenance: the audit trail of a {!Engine.refine} run.

    Each iteration records the violations that were outstanding (rule
    id, source location, message) and, when a catalogue transformation
    fired, the concrete source-level changes it made — per-site before
    and after snippets that pretty-print back to the rewritten program.
    The trail answers "why does the refined program look like this?"
    line by line, which is the paper's successive-refinement story made
    inspectable. *)

type change = {
  ch_class : string;  (** enclosing class name *)
  ch_site : string;
      (** where inside the class: ["method run"], ["constructor/2"],
          ["field buf"], or ["class"] for whole-class changes *)
  ch_loc : Mj.Loc.t;  (** location of the replaced source region *)
  ch_before : string; (** pretty-printed snippet before the rewrite *)
  ch_after : string;  (** pretty-printed snippet after the rewrite *)
}

type iteration = {
  it_index : int;  (** 1-based, matches the engine step's iteration *)
  it_violations : Policy.Rule.violation list;
  it_transform : string option;
      (** catalogue id of the transform applied this iteration, [None]
          for the final iteration that only re-checked *)
  it_description : string;
  it_sites : int;
  it_changes : change list;
  it_checked : Mj.Typecheck.checked;
      (** the program this iteration analyzed. A transform's input is
          its own iteration's [it_checked], its output the next
          iteration's — the pairs the refinement checker discharges
          verification conditions on ({!Verify}) *)
}

type t = {
  p_iterations : iteration list;  (** in refinement order *)
  p_compliant : bool;
  p_residual : Policy.Rule.violation list;
  p_final : string;  (** the refined program, pretty-printed *)
}

val diff_program :
  before:Mj.Ast.program -> after:Mj.Ast.program -> change list
(** Structural diff at declaration granularity: classes are matched by
    name, fields by name, methods by name, constructors by arity.
    Changed bodies are narrowed to the smallest differing statement
    span (common prefix and suffix trimmed under
    [Mj.Ast.equal_stmt]); each span becomes one {!change} whose
    location merges the replaced statements' spans. Exposed for
    tests. *)

val to_json : t -> Telemetry.Json.t
(** Machine-readable audit: [{"compliant", "iterations": [{"iteration",
    "violations", "transform", "sites", "changes": [{"class", "site",
    "file", "line", "col", "before", "after"}]}], "residual",
    "final"}]. *)

val to_string : t -> string
(** Human-readable audit trail. *)
