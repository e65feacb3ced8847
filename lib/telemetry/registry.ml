type arg = Int of int | Float of float | Str of string | Bool of bool

type counter = { c_name : string; mutable c_value : int }

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;
}

type span = {
  sp_id : int;
  sp_name : string;
  sp_cat : string;
  sp_depth : int;
  sp_parent : int;
  sp_start : float;
  mutable sp_stop : float;
  mutable sp_closed : bool;
  mutable sp_args : (string * arg) list;
}

type t = {
  clock : unit -> float;
  counters_tbl : (string, counter) Hashtbl.t;
  mutable counters_rev : counter list;
  histograms_tbl : (string, histogram) Hashtbl.t;
  mutable histograms_rev : histogram list;
  mutable spans_rev : span list;
  mutable n_spans : int;
  max_spans : int;
  mutable dropped : int;
  mutable open_stack : span list;
  mutable next_id : int;
}

let tick_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 1.0;
    !t

let create ?clock ?(max_spans = 1_000_000) () =
  let clock = match clock with Some c -> c | None -> tick_clock () in
  { clock;
    counters_tbl = Hashtbl.create 32;
    counters_rev = [];
    histograms_tbl = Hashtbl.create 16;
    histograms_rev = [];
    spans_rev = [];
    n_spans = 0;
    max_spans;
    dropped = 0;
    open_stack = [];
    next_id = 0 }

let sat_add a b = if a > max_int - b then max_int else a + b

let counter t name =
  match Hashtbl.find_opt t.counters_tbl name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace t.counters_tbl name c;
      t.counters_rev <- c :: t.counters_rev;
      c

let add c n = if n > 0 then c.c_value <- sat_add c.c_value n

let count t name n = add (counter t name) n

let histogram t name =
  match Hashtbl.find_opt t.histograms_tbl name with
  | Some h -> h
  | None ->
      let h =
        { h_name = name;
          h_count = 0;
          h_sum = 0;
          h_min = max_int;
          h_max = min_int;
          h_buckets = Array.make 64 0 }
      in
      Hashtbl.replace t.histograms_tbl name h;
      t.histograms_rev <- h :: t.histograms_rev;
      h

let bucket_of v =
  if v <= 0 then 0
  else
    let rec go v i = if v = 0 then i else go (v lsr 1) (i + 1) in
    min 63 (go v 0)

let observe h v =
  h.h_count <- h.h_count + 1;
  if v > 0 then h.h_sum <- sat_add h.h_sum v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let observe_value t name v = observe (histogram t name) v

let mean h = if h.h_count = 0 then 0.0 else float_of_int h.h_sum /. float_of_int h.h_count

let enter t ?(cat = "") ?(args = []) ?ts name =
  let now = match ts with Some ts -> ts | None -> t.clock () in
  let parent, depth =
    match t.open_stack with
    | [] -> (-1, 0)
    | p :: _ -> (p.sp_id, p.sp_depth + 1)
  in
  let sp =
    { sp_id = t.next_id;
      sp_name = name;
      sp_cat = cat;
      sp_depth = depth;
      sp_parent = parent;
      sp_start = now;
      sp_stop = now;
      sp_closed = false;
      sp_args = args }
  in
  t.next_id <- t.next_id + 1;
  t.open_stack <- sp :: t.open_stack;
  if t.n_spans < t.max_spans then begin
    t.spans_rev <- sp :: t.spans_rev;
    t.n_spans <- t.n_spans + 1
  end
  else t.dropped <- t.dropped + 1

let exit t ?(args = []) ?ts () =
  match t.open_stack with
  | [] -> ()
  | sp :: rest ->
      t.open_stack <- rest;
      sp.sp_stop <- (match ts with Some ts -> ts | None -> t.clock ());
      sp.sp_closed <- true;
      if args <> [] then sp.sp_args <- sp.sp_args @ args

let with_span t ?cat name f =
  enter t ?cat name;
  Fun.protect ~finally:(fun () -> exit t ()) f

let counters t = List.rev t.counters_rev
let histograms t = List.rev t.histograms_rev
let spans t = List.rev t.spans_rev
let dropped_spans t = t.dropped

let export_counters t = List.map (fun c -> (c.c_name, c.c_value)) (counters t)

let import_counters t pairs =
  List.iter (fun (name, v) -> (counter t name).c_value <- v) pairs

let saturated c = c.c_value = max_int

let saturated_counters t =
  List.filter_map
    (fun c -> if saturated c then Some c.c_name else None)
    (List.rev t.counters_rev)

let reset t =
  Hashtbl.reset t.counters_tbl;
  t.counters_rev <- [];
  Hashtbl.reset t.histograms_tbl;
  t.histograms_rev <- [];
  t.spans_rev <- [];
  t.n_spans <- 0;
  t.dropped <- 0;
  t.open_stack <- [];
  t.next_id <- 0
