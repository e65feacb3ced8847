(** Spatial abstraction (paper §3, Fig. 5).

    An aggregation of blocks is functionally equivalent to a single
    block; a collection of blocks and delay elements is equivalent to a
    system with one block and one (vector-valued) delay element. *)

val to_block : ?instants:Instant.t -> Graph.t -> Block.t
(** Collapse a delay-free graph into one functional block whose inputs
    and outputs follow the graph's environment port order. Each
    application runs the internal fixed point under a
    {!Fixpoint.Worklist} plan prepared once at collapse time; with
    [instants] set, the internal activity of every application is
    logged as nested sub-instants. Raises [Invalid_argument] if the
    graph contains delay elements. *)

val abstract : Graph.t -> Graph.t
(** Fig. 5 proper: an equivalent system with exactly one block and (if
    the original had any delays) one delay element carrying the tuple of
    all delay states. Environment ports keep their names, so traces of
    the original and the abstraction are directly comparable. *)
