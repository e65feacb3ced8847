(** Functional blocks: monotone functions from input signal vectors to
    output signal vectors, computed "instantaneously" within an instant.

    A block function receives the current (possibly partial) input
    vector and must be monotone: given more-defined inputs it may only
    produce more-defined (never different) outputs. Strict blocks — the
    common case — output ⊥ until all inputs are defined; {!strict}
    builds those. Non-strict blocks (e.g. a multiplexer that can decide
    from the select input alone) take the raw vector. *)

(** Semantic fingerprint of a block function, consumed by {!Fuse} to
    compile standard cells into allocation-free slot operations. Every
    constructor except [Opaque] promises the block behaves exactly like
    the corresponding standard cell (pure, and strict where the cell
    is); [Opaque] promises nothing and always takes the generic path. *)
type kernel =
  | Opaque
  | Const of Domain.t array  (** always outputs these values *)
  | Map1 of (Data.t -> Data.t)  (** strict unary map *)
  | Map2 of (Data.t -> Data.t -> Data.t)  (** strict binary map *)
  | IMap1 of (int -> int) * (Data.t -> Data.t)
      (** strict unary map with an int specialization; the int function
          must coincide with the data function on [Int] operands *)
  | IMap2 of (int -> int -> int) * (Data.t -> Data.t -> Data.t)
      (** strict binary map with an int specialization *)
  | Mux  (** non-strict 3-in select, {!mux} semantics *)
  | Fork  (** replicate input 0 on every output *)
  | Identity  (** copy input 0 to output 0 *)

type t = {
  name : string;
  n_in : int;
  n_out : int;
  fn : Domain.t array -> Domain.t array;
  kernel : kernel;
}

val make :
  ?kernel:kernel ->
  name:string -> n_in:int -> n_out:int ->
  (Domain.t array -> Domain.t array) -> t
(** Wraps [fn] with arity checks on every application. [kernel]
    (default [Opaque]) declares [fn] equivalent to a standard cell so
    {!Fuse} may specialize it; the claim is the caller's to keep. *)

val strict :
  ?kernel:kernel ->
  name:string -> n_in:int -> n_out:int ->
  (Data.t array -> Data.t array) -> t
(** Outputs ⊥ on all ports until every input is defined. *)

val apply : t -> Domain.t array -> Domain.t array
(** Apply with arity checking. *)

val monotone_on : t -> Domain.t array -> Domain.t array -> bool
(** [monotone_on b lo hi] checks the monotonicity law for one pair of
    comparable input vectors (testing helper). *)

(** {1 Standard cells} *)

val const : name:string -> Data.t -> t
val map1 : name:string -> (Data.t -> Data.t) -> t
val map2 : name:string -> (Data.t -> Data.t -> Data.t) -> t

val imap1 : name:string -> (int -> int) -> (Data.t -> Data.t) -> t
(** Unary map carrying an int specialization alongside the general data
    function. {!Fuse} compiles chains of these to raw-int arithmetic —
    no boxing, no slot traffic — and falls back to the data function
    when a non-[Int] value flows through. The two functions must agree
    on [Int] operands; the claim is the caller's to keep. *)

val imap2 : name:string -> (int -> int -> int) -> (Data.t -> Data.t -> Data.t) -> t
(** Binary counterpart of {!imap1}. *)

val add : t
val sub : t
val mul : t
val gain : int -> t
val neg : t
val logical_and : t
val logical_not : t
val mux : t
(** 3 inputs: select (bool), then-branch, else-branch. Non-strict: the
    unselected branch may be ⊥. *)

val fork : int -> t
(** 1 input, n equal outputs. *)

val identity : t
