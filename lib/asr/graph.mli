(** ASR system graphs: functional blocks, delay elements, channels, and
    environment ports (paper §3, Fig. 3).

    A graph is built imperatively ([add_*] then [connect]) and then
    {!compile}d into a net-indexed form used by {!Fixpoint} and
    {!Simulate}. Each input port must be driven by exactly one channel;
    outputs may fan out. *)

type node_id

type t

type endpoint = node_id * int
(** (node, port index). *)

val create : string -> t

val name : t -> string

val add_block : t -> Block.t -> node_id

val add_delay : t -> init:Domain.t -> node_id
(** One input, one output. Output at instant [t+1] equals input at
    instant [t]; at instant 0 it is [init]. *)

val add_input : t -> string -> node_id
(** Environment input: no in-ports, one out-port. *)

val add_output : t -> string -> node_id
(** Environment output: one in-port, no out-ports. *)

val connect : t -> src:endpoint -> dst:endpoint -> unit
(** Add a channel. Raises [Invalid_argument] on bad ports or when the
    destination port is already driven. *)

val out_port : node_id -> int -> endpoint

val in_port : node_id -> int -> endpoint

(** {1 Structure inspection} *)

type node_kind =
  | Kblock of Block.t
  | Kdelay of Domain.t
  | Kinput of string
  | Koutput of string

val nodes : t -> (node_id * node_kind) list

val channels : t -> (endpoint * endpoint) list

val block_count : t -> int

val delay_count : t -> int

val node_label : t -> node_id -> string

val node_index : node_id -> int

val map_blocks : t -> (int -> Block.t -> Block.t) -> t
(** Rebuild the graph with every block transformed. The callback's
    first argument is the block's index in declaration order — the same
    index the block has in {!compiled.c_blocks} — so wrappers (e.g.
    {!Inject}) can target compiled block indices. The replacement must
    keep the block's arity; [Invalid_argument] otherwise. The input
    graph is not modified. *)

(** {1 Compiled form} *)

type compiled = {
  n_nets : int;
  c_blocks : (Block.t * int array * int array) array;
      (** block, input nets, output nets *)
  c_delays : (int * int * Domain.t) array;
      (** input net, output net, initial value *)
  c_inputs : (string * int) array;   (** env input name, driven net *)
  c_outputs : (string * int) array;  (** env output name, observed net *)
  c_input_index : (string, int) Hashtbl.t;
      (** env input name -> driven net, for O(1) stimulus binding *)
  c_consumers : int array array;
      (** net -> indices into [c_blocks] of the blocks reading it (each
          block listed once); the reverse index behind the worklist
          fixpoint strategy *)
  c_fingerprint : string Lazy.t;  (** read through {!fingerprint} *)
}

val input_net : compiled -> string -> int option
(** Net driven by the named environment input, if any. *)

val compile : t -> compiled
(** Validates that every in-port is driven. Raises [Invalid_argument]
    listing the first unconnected port otherwise. The result is kept
    until the graph is next edited, so every consumer of one graph (a
    simulator, a checkpoint's fingerprint check) shares one
    compilation; treat it as immutable. *)

val fingerprint : compiled -> string
(** MD5 hex of the block names and the net layout of every block,
    delay and port — what a run artifact records to reject resuming on
    another graph. Block functions and delay initial values are not
    covered. Computed on first use and kept with the compilation, so
    every checkpoint of one simulator shares one string. *)

val affected_nets : compiled -> int -> bool array
(** [affected_nets c bi] marks every net transitively influenced by
    block [bi]'s outputs — through consuming blocks within an instant
    and through delay elements into later instants. Nets left unmarked
    provably cannot change when block [bi] misbehaves; the supervisor's
    containment property quantifies over exactly those nets. Raises
    [Invalid_argument] on a bad block index. *)

val has_causality_cycle : t -> bool
(** True when some cycle of channels passes through blocks only (no
    delay element on the path). Such systems need the fixed-point
    semantics; with strict blocks their outputs stay ⊥. *)
