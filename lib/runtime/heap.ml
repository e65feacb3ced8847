type phase = Init | Reactive

exception Runtime_error of string

type layout = {
  l_cls : string;
  l_names : string array;
  l_index : (string, int) Hashtbl.t;
}

type obj_data =
  | Object of { layout : layout; slots : Value.t array }
  | Arr of { elem : Mj.Ast.ty; cells : Value.t array }

type stats = {
  init_allocations : int;
  reactive_allocations : int;
  init_words : int;
  reactive_words : int;
  live_objects : int;
}

type t = {
  mutable cells : obj_data option array;
  mutable next : int;
  mutable phase : phase;
  mutable forbid_reactive : bool;
  mutable init_allocations : int;
  mutable reactive_allocations : int;
  mutable init_words : int;
  mutable reactive_words : int;
  mutable limit_words : int option;
  mutable gc_threshold : int option;
  mutable words_since_gc : int;
  mutable gc_count : int;
  mutable on_gc : live_words:int -> unit;
  mutable on_trap : unit -> unit;
  mutable live : int;  (* cells holding an object *)
  (* The collector's sweep set: the live cells the last pass kept,
     ascending, and [next] at that pass — cells from it on are new. *)
  mutable survivors : int array;
  mutable swept_to : int;
  mutable marks : Bytes.t;  (* all zero between passes *)
  (* One layout per class, shared by all its instances: field access
     sites cache the layout they last saw and the slot it maps to. *)
  layouts : (string, layout) Hashtbl.t;
}

let create () =
  { cells = Array.make 1024 None; next = 0; phase = Init;
    forbid_reactive = false; init_allocations = 0; reactive_allocations = 0;
    init_words = 0; reactive_words = 0; limit_words = None; gc_threshold = None;
    words_since_gc = 0; gc_count = 0; on_gc = (fun ~live_words:_ -> ());
    on_trap = (fun () -> ()); live = 0; survivors = [||]; swept_to = 0;
    marks = Bytes.empty; layouts = Hashtbl.create 16 }

let phase t = t.phase

let set_phase t phase = t.phase <- phase

let forbid_reactive_alloc t flag = t.forbid_reactive <- flag

let stats t =
  { init_allocations = t.init_allocations;
    reactive_allocations = t.reactive_allocations;
    init_words = t.init_words; reactive_words = t.reactive_words;
    live_objects = t.live }

let configure_gc t ~threshold_words =
  t.gc_threshold <- threshold_words;
  t.words_since_gc <- 0

let set_gc_hook t hook = t.on_gc <- hook

let set_trap_hook t hook = t.on_trap <- hook

let gc_count t = t.gc_count

let words_of_object n_fields = 2 + n_fields

let words_of_array n = 2 + n

let set_limit_words t limit =
  (match limit with
  | Some n when n < 0 -> invalid_arg "Heap.set_limit_words: negative limit"
  | _ -> ());
  t.limit_words <- limit

let limit_words t = t.limit_words

(* The exhaustion check models a fixed-size heap: total words ever
   allocated (the model has no reclamation of individual objects, even
   though the host representation reclaims cells: see [collect])
   against the configured capacity. It runs in both phases — an
   oversized initialization is as fatal on the target as a reactive
   alloc storm — and never touches [Cost], so arming a limit cannot
   perturb modeled cycle counts. *)
let check_limit t words =
  match t.limit_words with
  | Some limit when t.init_words + t.reactive_words + words > limit ->
      raise
        (Runtime_error
           (Printf.sprintf
              "heap exhausted: %d words requested, %d of %d in use"
              words
              (t.init_words + t.reactive_words)
              limit))
  | _ -> ()

let record_alloc t words =
  check_limit t words;
  match t.phase with
  | Init ->
      t.init_allocations <- t.init_allocations + 1;
      t.init_words <- t.init_words + words
  | Reactive ->
      if t.forbid_reactive then
        raise
          (Runtime_error
             "allocation during the reactive phase (bounded-memory policy)");
      t.reactive_allocations <- t.reactive_allocations + 1;
      t.reactive_words <- t.reactive_words + words;
      (match t.gc_threshold with
      | Some threshold ->
          t.words_since_gc <- t.words_since_gc + words;
          if t.words_since_gc > threshold then begin
            let live = t.init_words + t.words_since_gc in
            t.gc_count <- t.gc_count + 1;
            t.words_since_gc <- 0;
            t.on_gc ~live_words:live
          end
      | None -> ())

let store t data =
  if t.next >= Array.length t.cells then begin
    let bigger = Array.make (2 * Array.length t.cells) None in
    Array.blit t.cells 0 bigger 0 (Array.length t.cells);
    t.cells <- bigger
  end;
  let index = t.next in
  t.cells.(index) <- Some data;
  t.next <- index + 1;
  t.live <- t.live + 1;
  Value.Ref index

let make_layout ~cls names =
  let index = Hashtbl.create (max 4 (Array.length names)) in
  Array.iteri (fun i name -> Hashtbl.replace index name i) names;
  { l_cls = cls; l_names = names; l_index = index }

let layout t ~cls ~names =
  match Hashtbl.find_opt t.layouts cls with
  | Some l -> l
  | None ->
      let l = make_layout ~cls names in
      Hashtbl.replace t.layouts cls l;
      l

let alloc_object t layout slots =
  record_alloc t (words_of_object (Array.length slots));
  store t (Object { layout; slots })

let alloc_array t ~elem n =
  if n < 0 then raise (Runtime_error "negative array size");
  record_alloc t (words_of_array n);
  store t (Arr { elem; cells = Array.make n (Value.default elem) })

let dangling () = raise (Runtime_error "dangling reference")

let[@inline] get t index =
  if index < 0 || index >= t.next then dangling ()
  else
    match Array.unsafe_get t.cells index with
    | Some data -> data
    | None -> dangling ()

let[@inline] deref _t = function
  | Value.Ref index -> index
  | Value.Null -> raise (Runtime_error "null pointer dereference")
  | Value.Int _ | Value.Double _ | Value.Bool _ | Value.Str _ ->
      raise (Runtime_error "dereference of a non-reference value")

let not_an_object () =
  raise (Runtime_error "expected an object, found an array")

let object_class t index =
  match get t index with
  | Object { layout; _ } -> layout.l_cls
  | Arr _ -> not_an_object ()

let slot_of layout name =
  match Hashtbl.find_opt layout.l_index name with
  | Some i -> i
  | None -> raise (Runtime_error (Printf.sprintf "object has no field '%s'" name))

let get_field t index name =
  match get t index with
  | Object { layout; slots } -> slots.(slot_of layout name)
  | Arr _ -> not_an_object ()

let set_field t index name value =
  match get t index with
  | Object { layout; slots } -> slots.(slot_of layout name) <- value
  | Arr _ -> not_an_object ()

(* Inline caches for the closure backend: a site remembers the last
   layout it met and that layout's slot for its field name. *)
type field_site = {
  fs_name : string;
  mutable fs_layout : layout;
  mutable fs_slot : int;
}

let no_layout = make_layout ~cls:"" [||]

let field_site name = { fs_name = name; fs_layout = no_layout; fs_slot = 0 }

let site_slot site layout =
  if layout != site.fs_layout then begin
    site.fs_slot <- slot_of layout site.fs_name;
    site.fs_layout <- layout
  end;
  site.fs_slot

let get_field_at t index site =
  match get t index with
  | Object { layout; slots } -> slots.(site_slot site layout)
  | Arr _ -> not_an_object ()

let set_field_at t index site value =
  match get t index with
  | Object { layout; slots } -> slots.(site_slot site layout) <- value
  | Arr _ -> not_an_object ()

let not_an_array () =
  raise (Runtime_error "expected an array, found an object")

let[@inline] array_cells t index =
  match get t index with Arr { cells; _ } -> cells | Object _ -> not_an_array ()

let array_length t index = Array.length (array_cells t index)

let out_of_bounds t i cells =
  t.on_trap ();
  raise
    (Runtime_error
       (Printf.sprintf "array index %d out of bounds for length %d" i
          (Array.length cells)))

let[@inline] array_get t index i =
  let cells = array_cells t index in
  if i < 0 || i >= Array.length cells then out_of_bounds t i cells
  else Array.unsafe_get cells i

let[@inline] array_set t index i value =
  let cells = array_cells t index in
  if i < 0 || i >= Array.length cells then out_of_bounds t i cells
  else Array.unsafe_set cells i value

(* Unchecked accessors for statically verified sites. OCaml's own array
   check remains as a backstop: an unsound elision plan surfaces as
   [Invalid_argument] rather than silent corruption. *)
let array_get_unchecked t index i = (array_cells t index).(i)
let array_set_unchecked t index i value = (array_cells t index).(i) <- value

(* ----------------------------- collector -------------------------- *)

(* Host-side reclamation. A pass marks every cell reachable from the
   roots and sets the others to [None], so the host heap holds only live
   objects; indices are never reused ([next] only grows), so no [Ref],
   rendering or modeled counter changes. Only the previous pass's
   survivors and the cells allocated since can be live, so the sweep
   visits those alone. *)

let occupied = function Some _ -> true | None -> false

let holds_refs : Mj.Ast.ty -> bool = function
  | Mj.Ast.TInt | Mj.Ast.TBool | Mj.Ast.TDouble | Mj.Ast.TString -> false
  | Mj.Ast.TArray _ | Mj.Ast.TClass _ | Mj.Ast.TNull | Mj.Ast.TVoid -> true

let collect t ~roots =
  if Bytes.length t.marks < t.next then
    t.marks <- Bytes.make (Array.length t.cells) '\000';
  let marks = t.marks in
  let stack = ref (Array.make 64 0) and depth = ref 0 in
  let mark = function
    | Value.Ref i
      when i >= 0 && i < t.next
           && Bytes.unsafe_get marks i = '\000'
           && occupied t.cells.(i) ->
        Bytes.unsafe_set marks i '\001';
        if !depth = Array.length !stack then begin
          let bigger = Array.make (2 * !depth) 0 in
          Array.blit !stack 0 bigger 0 !depth;
          stack := bigger
        end;
        !stack.(!depth) <- i;
        incr depth
    | _ -> ()
  in
  roots mark;
  while !depth > 0 do
    decr depth;
    match t.cells.(!stack.(!depth)) with
    | Some (Object { slots; _ }) -> Array.iter mark slots
    | Some (Arr { elem; cells }) when holds_refs elem -> Array.iter mark cells
    | Some (Arr _) | None -> ()
  done;
  let kept = Array.make (Array.length t.survivors + t.next - t.swept_to) 0 in
  let n = ref 0 in
  let sweep i =
    if Bytes.unsafe_get marks i <> '\000' then begin
      Bytes.unsafe_set marks i '\000';
      kept.(!n) <- i;
      incr n
    end
    else if occupied t.cells.(i) then begin
      t.cells.(i) <- None;
      t.live <- t.live - 1
    end
  in
  Array.iter sweep t.survivors;
  for i = t.swept_to to t.next - 1 do
    sweep i
  done;
  t.survivors <- Array.sub kept 0 !n;
  t.swept_to <- t.next

(* ------------------------- snapshot / restore --------------------- *)

type snapshot = {
  s_cells : obj_data option array;
  s_next : int;
  s_phase : phase;
  s_forbid_reactive : bool;
  s_init_allocations : int;
  s_reactive_allocations : int;
  s_init_words : int;
  s_reactive_words : int;
  s_limit_words : int option;
  s_gc_threshold : int option;
  s_words_since_gc : int;
  s_gc_count : int;
}

(* Object slots and array cells are mutable, so both directions copy
   them: a snapshot stays valid however the live heap mutates, and a
   snapshot restored more than once hands out fresh state each time.
   Layouts are immutable and shared. *)
let copy_cell = function
  | None -> None
  | Some (Object { layout; slots }) ->
      Some (Object { layout; slots = Array.copy slots })
  | Some (Arr { elem; cells }) -> Some (Arr { elem; cells = Array.copy cells })

(* A restored object keeps its class's registered layout, so the field
   caches of running code stay valid. An object whose layout came from
   elsewhere (a decoded checkpoint, another machine) is re-slotted by
   field name into the registered layout, or registers its own when the
   class has none yet; one whose field set disagrees keeps its layout
   and is reached by name. *)
let adopt t = function
  | Some (Object { layout; slots }) as cell -> (
      match Hashtbl.find_opt t.layouts layout.l_cls with
      | Some l when l == layout -> copy_cell cell
      | Some l
        when Array.length l.l_names = Array.length layout.l_names
             && Array.for_all (Hashtbl.mem layout.l_index) l.l_names ->
          Some
            (Object
               { layout = l;
                 slots =
                   Array.map
                     (fun name -> slots.(Hashtbl.find layout.l_index name))
                     l.l_names })
      | Some _ -> copy_cell cell
      | None ->
          Hashtbl.replace t.layouts layout.l_cls layout;
          copy_cell cell)
  | cell -> copy_cell cell

let snapshot t =
  { s_cells = Array.init t.next (fun i -> copy_cell t.cells.(i));
    s_next = t.next;
    s_phase = t.phase;
    s_forbid_reactive = t.forbid_reactive;
    s_init_allocations = t.init_allocations;
    s_reactive_allocations = t.reactive_allocations;
    s_init_words = t.init_words;
    s_reactive_words = t.reactive_words;
    s_limit_words = t.limit_words;
    s_gc_threshold = t.gc_threshold;
    s_words_since_gc = t.words_since_gc;
    s_gc_count = t.gc_count }

let restore t s =
  let cap = max 1024 s.s_next in
  if Array.length t.cells < cap then t.cells <- Array.make cap None
  else Array.fill t.cells 0 (Array.length t.cells) None;
  t.live <- 0;
  for i = 0 to s.s_next - 1 do
    t.cells.(i) <- adopt t s.s_cells.(i);
    if occupied t.cells.(i) then t.live <- t.live + 1
  done;
  t.next <- s.s_next;
  (* The restored cells are the collector's sweep set. *)
  t.survivors <- Array.make t.live 0;
  let n = ref 0 in
  for i = 0 to s.s_next - 1 do
    if occupied t.cells.(i) then begin
      t.survivors.(!n) <- i;
      incr n
    end
  done;
  t.swept_to <- s.s_next;
  t.marks <- Bytes.empty;
  t.phase <- s.s_phase;
  t.forbid_reactive <- s.s_forbid_reactive;
  t.init_allocations <- s.s_init_allocations;
  t.reactive_allocations <- s.s_reactive_allocations;
  t.init_words <- s.s_init_words;
  t.reactive_words <- s.s_reactive_words;
  t.limit_words <- s.s_limit_words;
  t.gc_threshold <- s.s_gc_threshold;
  t.words_since_gc <- s.s_words_since_gc;
  t.gc_count <- s.s_gc_count
