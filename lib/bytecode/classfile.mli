(** Binary serialization of compiled MJ bytecode — the analogue of
    [.class] files. Used for the "program size" column of Table 1 and for
    saving/loading compiled images. *)

val encode_method : Instr.method_code -> string

val decode_method : string -> Instr.method_code
(** Raises [Failure "classfile: <what> at offset <n>"] on malformed
    input: truncated, a bad tag or magic, or a count larger than the
    bytes left. Decoding checks the format only; the verifier
    ({!Verify}) judges the code when an engine loads it. *)

val encode_image : Compile.image -> string
(** The full image: every compiled method and constructor plus the
    static initializer (symbol table not included). *)

val decode_image : Mj.Symtab.t -> string -> Compile.image
(** Rebuild a runnable image from {!encode_image} output and the symbol
    table of the same program. Raises [Failure] as {!decode_method}
    does, with offsets into [blob]. *)

val class_size : Compile.image -> string -> int
(** Serialized size in bytes of one class's methods and constructors. *)

val program_size : Compile.image -> classes:string list -> int
(** Total serialized size of the given classes (a user program's
    "class files"). *)
