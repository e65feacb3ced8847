module Json = Telemetry.Json

let malformed what = invalid_arg ("Snapshot.of_json: malformed " ^ what)

type ports_snap = {
  p_id : int;
  p_n_in : int;
  p_n_out : int;
  p_inputs : Value.t option array;
  p_outputs : Value.t option array;
}

type t = {
  s_heap : Heap.snapshot;
  s_statics : ((string * string) * Value.t) list;
  s_ports : ports_snap list;
  s_console : string;
  s_cycles : int;
}

(* Value.t is immutable (a [Ref] is just an index into the heap, whose
   contents the heap snapshot copies), so statics and port slots copy by
   sharing. *)
let capture (m : Machine.t) =
  let statics =
    Hashtbl.fold (fun k c acc -> (k, !c) :: acc) m.Machine.statics []
    |> List.sort compare
  in
  let ports =
    Hashtbl.fold
      (fun id (p : Machine.ports) acc ->
        { p_id = id;
          p_n_in = p.Machine.n_in;
          p_n_out = p.Machine.n_out;
          p_inputs = Array.copy p.Machine.inputs;
          p_outputs = Array.copy p.Machine.outputs }
        :: acc)
      m.Machine.asr_ports []
    |> List.sort (fun a b -> compare a.p_id b.p_id)
  in
  { s_heap = Heap.snapshot m.Machine.heap;
    s_statics = statics;
    s_ports = ports;
    s_console = Buffer.contents m.Machine.console;
    s_cycles = Cost.cycles m.Machine.cost }

let restore t (m : Machine.t) =
  Heap.restore m.Machine.heap t.s_heap;
  (* Into the existing cells: compiled code keeps pointers to them. *)
  List.iter
    (fun ((cls, name), v) -> Machine.static_set m cls name v)
    t.s_statics;
  Hashtbl.reset m.Machine.asr_ports;
  List.iter
    (fun p ->
      Hashtbl.replace m.Machine.asr_ports p.p_id
        { Machine.n_in = p.p_n_in;
          n_out = p.p_n_out;
          inputs = Array.copy p.p_inputs;
          outputs = Array.copy p.p_outputs })
    t.s_ports;
  Buffer.clear m.Machine.console;
  Buffer.add_string m.Machine.console t.s_console;
  Cost.restore_cycles m.Machine.cost t.s_cycles

(* ------------------------------ JSON ------------------------------ *)

let value_json (v : Value.t) =
  match v with
  | Value.Int n -> Json.Obj [ ("i", Json.Int n) ]
  | Value.Double f -> Json.Obj [ ("d", Json.float_bits f) ]
  | Value.Bool b -> Json.Bool b
  | Value.Str s -> Json.Obj [ ("s", Json.Str s) ]
  | Value.Null -> Json.Null
  | Value.Ref r -> Json.Obj [ ("ref", Json.Int r) ]

let value_of_json j =
  match j with
  | Json.Null -> Value.Null
  | Json.Bool b -> Value.Bool b
  | Json.Obj _ -> (
      match Json.member "i" j with
      | Some (Json.Int n) -> Value.Int n
      | _ -> (
          match Json.member "d" j with
          | Some bits -> (
              match Json.float_of_bits bits with
              | Some f -> Value.Double f
              | None -> malformed "value")
          | _ -> (
              match Json.member "s" j with
              | Some (Json.Str s) -> Value.Str s
              | _ -> (
                  match Json.member "ref" j with
                  | Some (Json.Int r) -> Value.Ref r
                  | _ -> malformed "value"))))
  | _ -> malformed "value"

let rec ty_name (ty : Mj.Ast.ty) =
  match ty with
  | Mj.Ast.TInt -> "int"
  | Mj.Ast.TBool -> "boolean"
  | Mj.Ast.TDouble -> "double"
  | Mj.Ast.TString -> "String"
  | Mj.Ast.TVoid -> "void"
  | Mj.Ast.TNull -> "null"
  | Mj.Ast.TArray t -> ty_name t ^ "[]"
  | Mj.Ast.TClass c -> "class:" ^ c

let rec ty_of_name s : Mj.Ast.ty =
  let n = String.length s in
  if n > 2 && String.sub s (n - 2) 2 = "[]" then
    Mj.Ast.TArray (ty_of_name (String.sub s 0 (n - 2)))
  else
    match s with
    | "int" -> Mj.Ast.TInt
    | "boolean" -> Mj.Ast.TBool
    | "double" -> Mj.Ast.TDouble
    | "String" -> Mj.Ast.TString
    | "void" -> Mj.Ast.TVoid
    | "null" -> Mj.Ast.TNull
    | s when n > 6 && String.sub s 0 6 = "class:" ->
        Mj.Ast.TClass (String.sub s 6 (n - 6))
    | _ -> malformed "type"

let cell_json (c : Heap.obj_data option) =
  match c with
  | None -> Json.Null
  | Some (Heap.Object { layout; slots }) ->
      let fs =
        Array.to_list (Array.mapi (fun i v -> (layout.Heap.l_names.(i), v)) slots)
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      Json.Obj
        [ ("cls", Json.Str layout.Heap.l_cls);
          ( "fields",
            Json.List
              (List.map
                 (fun (k, v) -> Json.List [ Json.Str k; value_json v ])
                 fs) ) ]
  | Some (Heap.Arr { elem; cells }) ->
      Json.Obj
        [ ("elem", Json.Str (ty_name elem));
          ("cells", Json.List (Array.to_list (Array.map value_json cells))) ]

let cell_of_json layouts j : Heap.obj_data option =
  match j with
  | Json.Null -> None
  | Json.Obj _ -> (
      match (Json.member "cls" j, Json.member "elem" j) with
      | Some (Json.Str cls), _ ->
          let fields =
            match Json.member "fields" j with
            | Some (Json.List fs) ->
                List.map
                  (function
                    | Json.List [ Json.Str k; v ] -> (k, value_of_json v)
                    | _ -> malformed "field")
                  fs
            | _ -> malformed "fields"
          in
          let names = Array.of_list (List.map fst fields) in
          let layout = layouts cls names in
          if Hashtbl.length layout.Heap.l_index <> Array.length names then
            malformed "fields";
          Some
            (Heap.Object
               { layout; slots = Array.of_list (List.map snd fields) })
      | _, Some (Json.Str elem) ->
          let cells =
            match Json.member "cells" j with
            | Some (Json.List l) ->
                Array.of_list (List.map value_of_json l)
            | _ -> malformed "cells"
          in
          Some (Heap.Arr { elem = ty_of_name elem; cells })
      | _ -> malformed "cell")
  | _ -> malformed "cell"

let int_field name j =
  match Json.member name j with Some (Json.Int n) -> n | _ -> malformed name

let opt_int_json = function None -> Json.Null | Some n -> Json.Int n

let opt_int_field name j =
  match Json.member name j with
  | Some Json.Null | None -> None
  | Some (Json.Int n) -> Some n
  | _ -> malformed name

let phase_name = function Heap.Init -> "init" | Heap.Reactive -> "reactive"

let phase_of_name = function
  | "init" -> Heap.Init
  | "reactive" -> Heap.Reactive
  | _ -> malformed "phase"

(* A run of reclaimed cells encodes as one [{"free": n}], so the
   encoding grows with the live cells, not with every index ever
   allocated. *)
let cells_json (h : Heap.snapshot) =
  let cells = h.Heap.s_cells in
  let rec go i acc =
    if i < 0 then acc
    else
      match cells.(i) with
      | Some _ as c -> go (i - 1) (cell_json c :: acc)
      | None ->
          let j = ref i in
          while !j > 0 && Option.is_none cells.(!j - 1) do decr j done;
          go (!j - 1) (Json.Obj [ ("free", Json.Int (i - !j + 1)) ] :: acc)
  in
  Json.List (go (h.Heap.s_next - 1) [])

let heap_json (h : Heap.snapshot) =
  Json.Obj
    [ ("cells", cells_json h);
      ("phase", Json.Str (phase_name h.Heap.s_phase));
      ("forbid_reactive", Json.Bool h.Heap.s_forbid_reactive);
      ("init_allocations", Json.Int h.Heap.s_init_allocations);
      ("reactive_allocations", Json.Int h.Heap.s_reactive_allocations);
      ("init_words", Json.Int h.Heap.s_init_words);
      ("reactive_words", Json.Int h.Heap.s_reactive_words);
      ("limit_words", opt_int_json h.Heap.s_limit_words);
      ("gc_threshold", opt_int_json h.Heap.s_gc_threshold);
      ("words_since_gc", Json.Int h.Heap.s_words_since_gc);
      ("gc_count", Json.Int h.Heap.s_gc_count) ]

(* Decoded objects of one class with one field list share a layout;
   restore re-slots them into the target heap's own. *)
let decoded_layouts () =
  let memo = Hashtbl.create 16 in
  fun cls names ->
    match Hashtbl.find_opt memo (cls, names) with
    | Some l -> l
    | None ->
        let l = Heap.make_layout ~cls names in
        Hashtbl.replace memo (cls, names) l;
        l

let heap_of_json j : Heap.snapshot =
  let cells =
    match Json.member "cells" j with
    | Some (Json.List l) ->
        let layouts = decoded_layouts () in
        List.concat_map
          (fun c ->
            match Json.member "free" c with
            | Some (Json.Int n) when n > 0 -> List.init n (fun _ -> None)
            | Some _ -> malformed "free run"
            | None -> [ cell_of_json layouts c ])
          l
        |> Array.of_list
    | _ -> malformed "cells"
  in
  { Heap.s_cells = cells;
    s_next = Array.length cells;
    s_phase =
      (match Json.member "phase" j with
      | Some (Json.Str s) -> phase_of_name s
      | _ -> malformed "phase");
    s_forbid_reactive =
      (match Json.member "forbid_reactive" j with
      | Some (Json.Bool b) -> b
      | _ -> malformed "forbid_reactive");
    s_init_allocations = int_field "init_allocations" j;
    s_reactive_allocations = int_field "reactive_allocations" j;
    s_init_words = int_field "init_words" j;
    s_reactive_words = int_field "reactive_words" j;
    s_limit_words = opt_int_field "limit_words" j;
    s_gc_threshold = opt_int_field "gc_threshold" j;
    s_words_since_gc = int_field "words_since_gc" j;
    s_gc_count = int_field "gc_count" j }

(* [Value.Null] encodes as [null] too, so slots disambiguate with a
   one-element wrapper: an absent slot is [null], a bound slot is
   [[v]]. *)
let port_slot_json = function
  | None -> Json.Null
  | Some v -> Json.List [ value_json v ]

let port_slot_of_json = function
  | Json.Null -> None
  | Json.List [ v ] -> Some (value_of_json v)
  | _ -> malformed "port slot"

let ports_json p =
  Json.Obj
    [ ("id", Json.Int p.p_id);
      ("n_in", Json.Int p.p_n_in);
      ("n_out", Json.Int p.p_n_out);
      ( "inputs",
        Json.List (Array.to_list (Array.map port_slot_json p.p_inputs)) );
      ( "outputs",
        Json.List (Array.to_list (Array.map port_slot_json p.p_outputs)) ) ]

let ports_of_json j =
  let slots name =
    match Json.member name j with
    | Some (Json.List l) -> Array.of_list (List.map port_slot_of_json l)
    | _ -> malformed name
  in
  { p_id = int_field "id" j;
    p_n_in = int_field "n_in" j;
    p_n_out = int_field "n_out" j;
    p_inputs = slots "inputs";
    p_outputs = slots "outputs" }

let to_json t =
  Json.Obj
    [ ("heap", heap_json t.s_heap);
      ( "statics",
        Json.List
          (List.map
             (fun ((cls, name), v) ->
               Json.List [ Json.Str cls; Json.Str name; value_json v ])
             t.s_statics) );
      ("ports", Json.List (List.map ports_json t.s_ports));
      ("console", Json.Str t.s_console);
      ("cycles", Json.Int t.s_cycles) ]

let of_json j =
  let statics =
    match Json.member "statics" j with
    | Some (Json.List l) ->
        List.map
          (function
            | Json.List [ Json.Str cls; Json.Str name; v ] ->
                ((cls, name), value_of_json v)
            | _ -> malformed "static")
          l
    | _ -> malformed "statics"
  in
  let ports =
    match Json.member "ports" j with
    | Some (Json.List l) -> List.map ports_of_json l
    | _ -> malformed "ports"
  in
  { s_heap =
      (match Json.member "heap" j with
      | Some h -> heap_of_json h
      | None -> malformed "heap");
    s_statics = statics;
    s_ports = ports;
    s_console =
      (match Json.member "console" j with
      | Some (Json.Str s) -> s
      | _ -> malformed "console");
    s_cycles = int_field "cycles" j }
