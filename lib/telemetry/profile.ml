type row = {
  r_label : string;
  mutable r_calls : int;
  mutable r_self : int;
  mutable r_cum : int;
  mutable r_allocs : int;
  mutable r_alloc_words : int;
  mutable r_gc_cycles : int;
}

type frame = { f_row : row; f_entry_total : int; f_outer : bool }

type t = {
  rows_tbl : (string, row) Hashtbl.t;
  mutable rows_rev : row list;
  mutable stack : frame list;
  on_stack : (string, int) Hashtbl.t;
  mutable total : int;
  root : row;
  span_reg : Registry.t option;
}

let make_row label =
  { r_label = label;
    r_calls = 0;
    r_self = 0;
    r_cum = 0;
    r_allocs = 0;
    r_alloc_words = 0;
    r_gc_cycles = 0 }

let create ?spans () =
  { rows_tbl = Hashtbl.create 64;
    rows_rev = [];
    stack = [];
    on_stack = Hashtbl.create 64;
    total = 0;
    root = make_row "<toplevel>";
    span_reg = spans }

let top t = match t.stack with [] -> t.root | f :: _ -> f.f_row

let charge t n =
  t.total <- t.total + n;
  let r = top t in
  r.r_self <- r.r_self + n

let enter t label =
  let row =
    match Hashtbl.find_opt t.rows_tbl label with
    | Some r -> r
    | None ->
        let r = make_row label in
        Hashtbl.replace t.rows_tbl label r;
        t.rows_rev <- r :: t.rows_rev;
        r
  in
  row.r_calls <- row.r_calls + 1;
  let occurrences =
    match Hashtbl.find_opt t.on_stack label with Some d -> d | None -> 0
  in
  Hashtbl.replace t.on_stack label (occurrences + 1);
  t.stack <-
    { f_row = row; f_entry_total = t.total; f_outer = occurrences = 0 }
    :: t.stack;
  match t.span_reg with
  | Some reg -> Registry.enter reg ~cat:"method" ~ts:(float_of_int t.total) label
  | None -> ()

let leave t =
  match t.stack with
  | [] -> ()
  | f :: rest ->
      t.stack <- rest;
      let label = f.f_row.r_label in
      (match Hashtbl.find_opt t.on_stack label with
      | Some 1 -> Hashtbl.remove t.on_stack label
      | Some d -> Hashtbl.replace t.on_stack label (d - 1)
      | None -> ());
      if f.f_outer then
        f.f_row.r_cum <- f.f_row.r_cum + (t.total - f.f_entry_total);
      (match t.span_reg with
      | Some reg -> Registry.exit reg ~ts:(float_of_int t.total) ()
      | None -> ())

let alloc t ~words =
  let r = top t in
  r.r_allocs <- r.r_allocs + 1;
  r.r_alloc_words <- r.r_alloc_words + words

let gc t ~cycles =
  let r = top t in
  r.r_gc_cycles <- r.r_gc_cycles + cycles

let total t = t.total

let rows t =
  t.root.r_cum <- t.total;
  t.root :: List.rev t.rows_rev

let by_self t =
  List.stable_sort
    (fun a b ->
      match compare b.r_self a.r_self with
      | 0 -> compare a.r_label b.r_label
      | c -> c)
    (rows t)

let depth t = List.length t.stack
