(** Exporters over {!Registry} and {!Profile} data: human-readable
    tables, a machine-readable JSON dump, and Chrome [trace_event]
    files loadable in [chrome://tracing] / Perfetto. *)

val table : ?causal_loss:int * int -> Registry.t -> string
(** Pretty text: counters, histograms, then the span tree (indented by
    nesting depth, with durations and args), then one line per
    data-loss condition (dropped spans, saturated counters, and — when
    [causal_loss = (overwrites, truncated_slices)] reports a traced
    run's causal ring, see {!Causal.data_loss} — ring overwrites and
    truncated slices). *)

val json : ?causal_loss:int * int -> Registry.t -> Json.t
(** Full structured dump: [{"counters": {...}, "histograms": [...],
    "spans": [...], "dropped_spans": n, "data_loss": {...}}] —
    [data_loss] carries [dropped_spans] (nonzero when the retention
    cap truncated the span list), [saturated_counters] (counters
    that hit [max_int]) and the causal ring's [causal_overwrites] /
    [causal_truncated] (0 unless [causal_loss] is supplied), so a
    partial view is never silently read as complete. *)

val chrome_trace : ?causal_loss:int * int -> Registry.t -> string
(** JSON Object Format per the Trace Event specification: closed spans
    become complete ([ph = "X"]) events with µs timestamps; counters
    ride along under ["otherData"], and ["metadata"] carries
    [dropped_spans], [saturated_counters], [causal_overwrites] and
    [causal_truncated] (see {!json}). *)

val profile_table : ?limit:int -> Profile.t -> string
(** Flat profile sorted by self cycles (descending), gprof-style, with
    calls, self/cumulative cycles, percentages, allocation and GC
    columns. [limit] caps the number of rows shown. *)

val profile_json : Profile.t -> Json.t
(** [{"total": n, "methods": [...]}] in self-descending order. *)

val lines_json : Lines.t -> Json.t
(** [{"total": n, "lines": [...]}] in cycles-descending order. *)
