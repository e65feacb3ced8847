(** The frame layout both engines share (DESIGN.md §2b): three lanes
    indexed alike — ints and booleans (0/1) in [i], doubles in [d],
    references, strings and values of unknown type in [v]. Each engine
    puts every slot in the lane of its verified type ({!Verify.slot}).

    The int lane ends with two slots per back edge for
    {!Mj_runtime.Cost.back_edge}: the meter when the edge was last
    taken in this activation, and how many takings in a row found it
    unmoved. *)

type t = { i : int array; d : Float.Array.t; v : Mj_runtime.Value.t array }

type pool
(** Frames of one method's finished activations, all of one shape. *)

val pool : ints:int -> doubles:int -> values:int -> edges:int -> pool
(** A pool of frames with [ints] int slots before [edges] back edges'
    two slots each, [doubles] double slots and [values] value slots. *)

val edge_slot : ints:int -> int -> int
(** [edge_slot ~ints e]: the first int-lane slot of back edge [e] in a
    frame with [ints] int slots before the back edges'. *)

val acquire : pool -> t
(** A frame for a new activation: one a finished activation left, or a
    fresh one. Nothing reads a slot before the activation writes it (the
    verifier rejects reads of unwritten locals), so only the back-edge
    slots start over. *)

val release : pool -> t -> unit
(** Give back a frame whose activation has ended, however it ended. *)
