let temp_path path =
  Filename.concat (Filename.dirname path)
    (Printf.sprintf ".%s.%d.tmp" (Filename.basename path) (Unix.getpid ()))

let sys_error path = function
  | Unix.Unix_error (e, _, _) -> Sys_error (path ^ ": " ^ Unix.error_message e)
  | e -> e

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* The temporary file, written and forced to disk; closed either way. *)
let write_temp tmp chunks =
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  match
    List.iter (write_all fd) chunks;
    Unix.fsync fd
  with
  | () -> Unix.close fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let write_file path chunks =
  let tmp = temp_path path in
  match
    write_temp tmp chunks;
    Unix.rename tmp path
  with
  | () -> ()
  | exception e ->
      (* nothing to remove when the open itself failed *)
      (try Sys.remove tmp with Sys_error _ -> ());
      raise (sys_error path e)
