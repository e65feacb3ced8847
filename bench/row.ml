(* One row schema for every bench target. A target reports a flat list
   of rows; this module renders them as a text table or as JSON, fails
   the run on any false gate, and compares a fresh run with a recorded
   one of the same target. *)

module J = Telemetry.Json

type value = Int of int | Float of float | Bool of bool | Str of string

(* [Exact]: deterministic (modeled cycles, counts, names, coverage),
   must equal the recorded baseline. [Wall]: host timing, printed and
   never gated. [Gate]: a bool that must be true in this run. *)
type kind = Exact | Wall | Gate

type t = {
  target : string;
  workload : string;
  layer : string;
  metric : string;
  unit_ : string;
  value : value;
  kind : kind;
}

let make kind unit_ value ~w ?(layer = "") metric =
  { target = ""; workload = w; layer; metric; unit_; value; kind }

let count ~w ?layer metric n = make Exact "count" (Int n) ~w ?layer metric
let cycles ~w ?layer metric n = make Exact "cycles" (Int n) ~w ?layer metric
let exact ~w ?layer ?(unit_ = "") metric v = make Exact unit_ v ~w ?layer metric
let str ~w ?layer metric s = make Exact "" (Str s) ~w ?layer metric

let wall ~w ?layer ?(unit_ = "s") metric f =
  make Wall unit_ (Float f) ~w ?layer metric

let gate ~w ?layer metric b = make Gate "" (Bool b) ~w ?layer metric

let kind_name = function Exact -> "exact" | Wall -> "wall" | Gate -> "gate"

let value_json = function
  | Int n -> J.Int n
  | Float f -> J.Float f
  | Bool b -> J.Bool b
  | Str s -> J.Str s

(* Values compare by their JSON rendering, the form a baseline records
   them in (floats go through the same decimal rounding on both
   sides). *)
let render v = J.to_string (value_json v)

let name r =
  String.concat "/"
    (List.filter (( <> ) "") [ r.target; r.workload; r.layer; r.metric ])

let print_text rows =
  let line = Printf.printf "%-20s %-28s %-28s %14s  %-7s %s\n" in
  line "workload" "layer" "metric" "value" "unit" "kind";
  List.iter
    (fun r ->
      let v =
        match r.value with
        | Str s -> s
        | Float f -> Printf.sprintf "%.6g" f
        | v -> render v
      in
      line r.workload r.layer r.metric v r.unit_ (kind_name r.kind))
    rows

(* One row per line, so committed artifacts diff row by row. *)
let to_json_string ~target rows =
  let row r =
    J.to_string
      (J.Obj
         [ ("workload", J.Str r.workload); ("layer", J.Str r.layer);
           ("metric", J.Str r.metric); ("unit", J.Str r.unit_);
           ("value", value_json r.value); ("kind", J.Str (kind_name r.kind))
         ])
  in
  Printf.sprintf "{\"target\": %s, \"rows\": [\n  %s\n]}\n"
    (J.to_string (J.Str target))
    (String.concat ",\n  " (List.map row rows))

let of_json j =
  let target =
    match J.member "target" j with Some (J.Str t) -> t | _ -> ""
  in
  let field k r =
    match J.member k r with
    | Some (J.Str s) -> s
    | _ -> failwith (Printf.sprintf "row without a string %S" k)
  in
  let row r =
    let value =
      match J.member "value" r with
      | Some (J.Int n) -> Int n
      | Some (J.Float f) -> Float f
      | Some (J.Bool b) -> Bool b
      | Some (J.Str s) -> Str s
      | _ -> failwith "row without a scalar \"value\""
    in
    let kind =
      match field "kind" r with
      | "exact" -> Exact
      | "wall" -> Wall
      | "gate" -> Gate
      | k -> failwith (Printf.sprintf "unknown row kind %S" k)
    in
    { target; workload = field "workload" r; layer = field "layer" r;
      metric = field "metric" r; unit_ = field "unit" r; value; kind }
  in
  match J.member "rows" j with Some (J.List l) -> List.map row l | _ -> []

(* A recorded run: [Error] carries a one-line diagnostic for a file
   that cannot be read, does not parse, or holds a malformed row. *)
let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error ("cannot read baseline: " ^ msg)
  | text -> (
      match of_json (J.parse text) with
      | rows -> Ok rows
      | exception J.Parse_error msg ->
          Error (Printf.sprintf "cannot parse baseline %s: %s" path msg)
      | exception Failure msg ->
          Error (Printf.sprintf "malformed baseline %s: %s" path msg))

let failed_gates rows =
  List.filter_map
    (fun r ->
      match (r.kind, r.value) with
      | Gate, Bool true -> None
      | Gate, _ -> Some ("FAIL " ^ name r)
      | _ -> None)
    rows

(* Pairs rows by (workload, layer, metric). Every recorded exact or gate
   row must be present in the fresh run, and every recorded exact value
   equal; a baseline without an exact row for [target] gates nothing,
   so it fails too. Wall rows and fresh rows the baseline lacks are
   reported, never gated. Returns the report lines and the verdict. *)
let compare ~target ~recorded fresh =
  let key r = (r.workload, r.layer, r.metric) in
  let recorded = List.filter (fun r -> r.target = target) recorded in
  if not (List.exists (fun r -> r.kind = Exact) recorded) then
    ([ Printf.sprintf "FAIL %s: the baseline records no exact row" target ],
     false)
  else
    let now = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace now (key r) r) fresh;
    let lines = ref [] and ok = ref true and equal = ref 0 in
    let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
    List.iter
      (fun old ->
        match (Hashtbl.find_opt now (key old), old.kind) with
        | None, Wall -> say "  %s: gone (not gated)" (name old)
        | None, _ ->
            ok := false;
            say "FAIL %s: missing from the fresh run" (name old)
        | Some r, Exact when render r.value <> render old.value ->
            ok := false;
            say "FAIL %s: recorded %s, fresh %s" (name old) (render old.value)
              (render r.value)
        | Some _, Exact -> incr equal
        | Some r, Wall ->
            say "  %s: %s -> %s (not gated)" (name old) (render old.value)
              (render r.value)
        | Some _, Gate -> ())
      recorded;
    let seen = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace seen (key r) ()) recorded;
    List.iter
      (fun r ->
        if not (Hashtbl.mem seen (key r)) then
          say "  %s: %s (new, not gated)" (name r) (render r.value))
      fresh;
    say "  %d exact row(s) equal to the baseline" !equal;
    (List.rev !lines, !ok)

(* Gate rows of this run, then the recorded baseline if one is given.
   Diagnostics go to stderr (stdout may be JSON). *)
let check ~target ?baseline rows =
  let gates = failed_gates rows in
  List.iter prerr_endline gates;
  let recorded_ok =
    match baseline with
    | None -> true
    | Some path -> (
        match load path with
        | Error msg ->
            prerr_endline msg;
            false
        | Ok recorded ->
            Printf.eprintf "fresh run vs recorded %s\n" path;
            let lines, ok = compare ~target ~recorded rows in
            List.iter prerr_endline lines;
            ok)
  in
  gates = [] && recorded_ok
