(** Value Change Dump (IEEE 1364 §18) writer.

    Generic over signal kinds so the ASR layer can map its domain values
    onto wires, reals, and string variables; the output opens in GTKWave
    and other standard waveform viewers. Timestamps are instants
    (0, 1, 2, …) at a timescale of 1 us. *)

type value =
  | Bits of string  (** binary digits, or ["x"] for undefined *)
  | Real of float
  | Str of string

type kind =
  | Wire of int  (** bit width *)
  | Real_kind
  | String_kind

type signal = { name : string; kind : kind }

val dump : (signal * value list) list -> string
(** [dump signals] renders a complete VCD document: header, one [$var]
    per signal, initial values under [$dumpvars] at [#0], then
    change-only emission at each subsequent instant. All value lists
    should have equal length; shorter ones read as undefined at the
    missing instants. Every signal sits in one module scope, [asr]. *)
