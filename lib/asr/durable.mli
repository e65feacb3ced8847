(** Crash-safe writes for run artifacts (checkpoints, traces). *)

val write_file : string -> string list -> unit
(** [write_file path chunks] writes the concatenation of [chunks] to a
    temporary file beside [path] ([.<name>.<pid>.tmp] in the same
    directory), forces it to disk with [fsync], then renames it over
    [path]. A crash at any point leaves either the previous file or the
    complete new one, never a torn mix. On failure the temporary file is
    removed, [path] is untouched, and [Sys_error] is raised. *)

val temp_path : string -> string
(** The temporary file {!write_file} uses for [path] in this process. *)
