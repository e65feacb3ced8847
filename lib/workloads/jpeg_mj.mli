(** The JPEG compression/decompression design example (paper §5,
    Table 1), written in MJ.

    Two variants of the same codec (RGB↔YCbCr, 8×8 orthonormal DCT,
    uniform quantization, zigzag, run-length entropy coding, full
    decode back to RGB):

    - {!unrestricted_source} mirrors a typical dynamic-Java style:
      [while] loops, a linked-list vector for the entropy stream,
      per-reaction allocation, public fields. It violates the ASR
      policy of use in all the ways §5 describes.
    - {!restricted_source} is the hand-refined result of SFR: all
      buffers preallocated in the constructor, bounded [for] loops,
      private fields. It is fully compliant.

    Both produce byte-identical reconstructed images and stream lengths
    for the same input. The ASR block has one input port (packed RGB
    pixels) and two output ports (reconstructed pixels, compressed
    stream length in ints). *)

val class_name : string

val unrestricted_source : width:int -> height:int -> unit -> string

val restricted_source : width:int -> height:int -> unit -> string

val unrestricted_classes : string list
(** User classes of the unrestricted program (for program-size
    measurements). *)

val restricted_classes : string list
