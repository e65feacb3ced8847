(** Text waveform rendering of simulation traces — the JavaTime-style
    "system visualization" the paper lists as future work, in miniature.

    {v
    instant | 0    1    2    3
    x       | 3    1    4    .
    sum     | 3    4    8    .
    v}

    Absent (⊥) values render as [.]. *)

val render : Simulate.trace_entry list -> string
(** One column per entry, headed by the entry's [instant] (a resumed
    run's columns start at its first instant, not 0); one row per input
    and output signal, inputs first, in first-appearance order. *)

val render_signals : (string * Domain.t list) list -> string
(** Lower-level: explicit rows, columns numbered from 0. *)

val to_vcd : Simulate.trace_entry list -> string
(** Standard VCD dump of the same signals (one VCD timestep per
    instant), openable in GTKWave. Booleans become 1-bit wires, ints
    32-bit vectors (two's complement), reals VCD real variables, and ⊥
    renders as ['x'] (or the string ["bottom"] for signals forced to
    string variables), at a timescale of 1 us in module scope [asr]. *)

val signals_to_vcd : (string * Domain.t list) list -> string
(** Lower-level: explicit rows, as {!render_signals}. *)
