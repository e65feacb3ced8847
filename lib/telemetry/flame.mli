(** Collapsed-stack ("folded") flamegraph export over {!Registry} spans.

    The format is the one consumed by Brendan Gregg's [flamegraph.pl]
    and by speedscope: one line per distinct call stack,

    {v root;child;grandchild 1234 v}

    where the number is the {e self} weight of the leaf frame — the
    span's duration minus the durations of its direct children in the
    same category. For spans produced by {!Profile} (category
    ["method"], timestamps in cycles) the weights are exact cycle
    counts, so summing the lines whose leaf is a given method
    reproduces that method's [r_self] in the flat profile. *)

val collapse : Registry.t -> (string * int) list
(** Fold the registry's closed ["method"] spans into
    [(stack, self_weight)] rows, sorted by stack. Parent chains skip
    spans of other categories; still-open spans are ignored. Rows with
    zero self weight are dropped. *)

val to_string : (string * int) list -> string
(** One ["stack weight\n"] line per row. *)

val parse : string -> (string * int) list
(** Inverse of {!to_string}; tolerates blank lines.
    @raise Failure on a malformed line. *)
