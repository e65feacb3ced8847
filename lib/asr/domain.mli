(** The flat value domain of ASR signals.

    Each channel's value in an instant is an element of the flat CPO
    over {!Data.t}: either ⊥ (not yet determined / absent) or a defined
    value. Block functions must be monotone (hence continuous, the
    domain having finite height) with respect to [leq]; the fixed-point
    semantics of an instant relies on that. *)

type t = Bottom | Def of Data.t

exception Inconsistent of string
(** Raised by [lub] when two defined, distinct values meet — a block
    retracted or changed its output during fixpoint iteration. *)

val bottom : t

val def : Data.t -> t

val is_def : t -> bool

val leq : t -> t -> bool
(** ⊥ ≤ x; [Def a ≤ Def b] iff [a = b]. *)

val lub : t -> t -> t

val equal : t -> t -> bool

val int : int -> t
val real : float -> t
val bool : bool -> t
val int_array : int array -> t

val to_int : t -> int option
(** Projection helpers used by block definitions. *)

val int_lane : t -> int
(** [n] for [Def (Int n)], [min_int] for any other value: the int view
    under which observers store values unboxed ([Int min_int] itself
    stays boxed), rebuilt by {!int}. *)

val to_bool : t -> bool option

val pp : Format.formatter -> t -> unit

val to_string : t -> string
