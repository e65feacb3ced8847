(** Policy-of-use framework (paper §2): a policy is a set of rules; each
    rule is a static analysis producing violations, and each violation
    carries suggested fixes — automated transformations where possible,
    guidance for the user otherwise. *)

type severity =
  | Forbidden  (** the program is outside S′ until fixed *)
  | Caution    (** admissible but fragile; the paper flags these too *)

type fix =
  | Automatic of string
      (** id of a transformation in the SFR engine's catalogue *)
  | Manual of string  (** guidance shown to the designer *)

type violation = {
  rule_id : string;
  severity : severity;
  loc : Mj.Loc.t;
  subject : string;  (** "Class.method" or "Class.field" context *)
  message : string;
  fixes : fix list;
  related : (string * Mj.Loc.t) list;
      (** secondary locations as [(role, loc)] pairs — e.g. a race
          report carries at least one racing ["write"] and one racing
          ["read"] site in addition to the field declaration *)
}

type t = {
  id : string;
  title : string;
  paper_ref : string;  (** claim in the paper this rule implements *)
  check : Mj.Typecheck.checked -> violation list;
}

val make_violation :
  rule:t ->
  ?severity:severity ->
  loc:Mj.Loc.t ->
  subject:string ->
  ?fixes:fix list ->
  ?related:(string * Mj.Loc.t) list ->
  string ->
  violation

val is_blocking : violation -> bool
(** Forbidden violations block compliance; cautions do not. *)

val order_violations : violation list -> violation list
(** Canonical report order: violations grouped by rule (in the order
    rules first reported) and sorted by location — (file, line, col) —
    within each group. {!report_to_json} applies this, honouring the
    "ordered by rule then location" contract of the policy checkers. *)

val automatic_fixes : violation -> string list

val pp_violation : Format.formatter -> violation -> unit

val pp_report : Format.formatter -> violation list -> unit

val report_to_json : violation list -> string
(** Whole report as [{"compliant": bool, "violations": [...]}]. *)
