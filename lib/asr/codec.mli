(** Bit-exact JSON codec for ASR values, shared by the run artifact
    ({!Checkpoint}) and the supervisor's state.

    [Telemetry.Json.to_string] rounds floats through a decimal
    representation and renders non-finite values as [0], so reals are
    encoded with {!Telemetry.Json.float_bits} — the exact IEEE-754 bit
    pattern rides alongside a human-readable approximation and decoding
    restores the identical bits (NaN payloads and [-0.0] included).
    All decoders raise [Invalid_argument] on malformed input. *)

val data_json : Data.t -> Telemetry.Json.t
val data_of_json : Telemetry.Json.t -> Data.t

val value_json : Domain.t -> Telemetry.Json.t
(** [Bottom] encodes as JSON [null]. *)

val value_of_json : Telemetry.Json.t -> Domain.t

val value_eq : Domain.t -> Domain.t -> bool
(** Bit-exact equality: [Domain.equal] compares reals with [(=)], which
    conflates distinct NaN payloads and [-0.0] with [0.0]; this compares
    the serialized forms, the identity replay and resume are measured
    against. *)

val vec_json : Domain.t array -> Telemetry.Json.t
val vec_of_json : string -> Telemetry.Json.t -> Domain.t array

val spec_json : Inject.spec -> Telemetry.Json.t
val spec_of_json : Telemetry.Json.t -> Inject.spec
