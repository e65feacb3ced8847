type kind = Eval | Input | Delay | Folded

type 'v event = {
  ev_uid : int;
  ev_instant : int;
  ev_kind : kind;
  ev_block : int;
  ev_tag : string;
  ev_src : int;
  ev_reads : int array;
  ev_write_nets : int array;
  ev_write_values : 'v array;
}

(* The one untagged value: stores of it into [s_tag] are skipped when
   the slot already holds it, sparing the write barrier. *)
let no_tag = ""

let kind_code = function Eval -> 0 | Input -> 1 | Delay -> 2 | Folded -> 3

let kinds = [| Eval; Input; Delay; Folded |]

(* The ring is a struct of arrays: slot [uid mod capacity] of each
   per-slot array describes event [uid], and its reads and writes sit
   at a fixed per-slot stride in three arenas. Recording allocates
   nothing once the arenas are sized: a stride grows (re-laying every
   slot) only when an event exceeds it, and the value arena is created
   with the first recorded value, which also fills its unused entries.
   Event records are built only when a query or the serializer asks.
   The open evaluation collects reads and writes in reused scratch and
   is copied into the ring on commit: a quiet evaluation pushes nothing
   and must not clobber the oldest retained event. *)
type 'v t = {
  c_capacity : int;
  c_n_nets : int;
  s_uid : int array;  (* -1: empty slot *)
  s_instant : int array;
  s_kind : int array;
  s_block : int array;
  s_tag : string array;
  s_src : int array;
  s_n_reads : int array;  (* ints used in the read arena: 2 × pairs *)
  s_n_writes : int array;
  mutable r_stride : int;
  mutable r_arena : int array;  (* flattened (net, producer uid) pairs *)
  mutable w_stride : int;
  mutable w_nets : int array;
  mutable w_vals : 'v array;  (* [||] until the first value *)
  mutable c_pushed : int;
  mutable c_instant : int;  (* last opened instant; -1 before the first *)
  mutable c_open : bool;
  (* establishing-event uid per net, this instant and the previous one
     (delay bindings read across the boundary) *)
  mutable c_cur : int array;
  mutable c_prev : int array;
  (* open evaluation scratch *)
  mutable c_ev_open : bool;
  mutable c_ev_block : int;
  mutable c_ev_tag : string;
  mutable c_reads : int array;  (* flattened (net, uid) pairs *)
  mutable c_n_reads : int;  (* pairs, not slots *)
  mutable c_w_nets : int array;
  mutable c_w_vals : 'v array;  (* [||] until the first write *)
  mutable c_n_writes : int;
  mutable c_truncated : int;
}

let create ?(capacity = 65536) ~n_nets () =
  if capacity < 1 then invalid_arg "Causal.create: capacity must be >= 1";
  if n_nets < 0 then invalid_arg "Causal.create: negative net count";
  let slots v = Array.make capacity v in
  { c_capacity = capacity;
    c_n_nets = n_nets;
    s_uid = slots (-1);
    s_instant = slots 0;
    s_kind = slots 0;
    s_block = slots (-1);
    s_tag = slots no_tag;
    s_src = slots (-1);
    s_n_reads = slots 0;
    s_n_writes = slots 0;
    r_stride = 4;
    r_arena = Array.make (4 * capacity) 0;
    w_stride = 1;
    w_nets = slots 0;
    w_vals = [||];
    c_pushed = 0;
    c_instant = -1;
    c_open = false;
    c_cur = Array.make n_nets (-1);
    c_prev = Array.make n_nets (-1);
    c_ev_open = false;
    c_ev_block = -1;
    c_ev_tag = no_tag;
    c_reads = Array.make 16 0;
    c_n_reads = 0;
    c_w_nets = [||];
    c_w_vals = [||];
    c_n_writes = 0;
    c_truncated = 0 }

let capacity t = t.c_capacity

let n_nets t = t.c_n_nets

(* ------------------------- instant lifecycle ---------------------- *)

let in_instant t = t.c_open

let begin_instant t =
  if t.c_open then invalid_arg "Causal.begin_instant: instant open";
  t.c_open <- true;
  t.c_instant <- t.c_instant + 1;
  let prev = t.c_prev in
  t.c_prev <- t.c_cur;
  Array.fill prev 0 t.c_n_nets (-1);
  t.c_cur <- prev

let end_instant t =
  if not t.c_open then invalid_arg "Causal.end_instant: no instant open";
  if t.c_ev_open then invalid_arg "Causal.end_instant: evaluation open";
  t.c_open <- false

let instant t = if t.c_open then t.c_instant else t.c_instant + 1

(* ------------------------------ the ring -------------------------- *)

(* Re-lay an arena at a wider stride, moving each slot's used prefix. *)
let restride arena ~old_stride ~stride ~used fill =
  let a = Array.make (Array.length used * stride) fill in
  Array.iteri
    (fun s n -> Array.blit arena (s * old_stride) a (s * stride) n)
    used;
  a

let wider stride need = max need (2 * stride)

(* Room for [n] read ints in every slot. *)
let reserve_reads t n =
  if n > t.r_stride then begin
    let stride = wider t.r_stride n in
    t.r_arena <-
      restride t.r_arena ~old_stride:t.r_stride ~stride ~used:t.s_n_reads 0;
    t.r_stride <- stride
  end

(* Room for [n] >= 1 writes in every slot; [v] fills a fresh value
   arena. *)
let reserve_writes t n v =
  if n > t.w_stride then begin
    let stride = wider t.w_stride n in
    t.w_nets <-
      restride t.w_nets ~old_stride:t.w_stride ~stride ~used:t.s_n_writes 0;
    if Array.length t.w_vals > 0 then
      t.w_vals <-
        restride t.w_vals ~old_stride:t.w_stride ~stride ~used:t.s_n_writes
          t.w_vals.(0);
    t.w_stride <- stride
  end;
  if Array.length t.w_vals = 0 then
    t.w_vals <- Array.make (t.c_capacity * t.w_stride) v

let set_slot t s ~uid ~instant ~kind ~block ~tag ~src ~n_reads ~n_writes =
  t.s_uid.(s) <- uid;
  t.s_instant.(s) <- instant;
  t.s_kind.(s) <- kind_code kind;
  t.s_block.(s) <- block;
  if t.s_tag.(s) != tag then t.s_tag.(s) <- tag;
  t.s_src.(s) <- src;
  t.s_n_reads.(s) <- n_reads;
  t.s_n_writes.(s) <- n_writes

(* Store a whole event record in its slot (restoration). *)
let store t ev =
  let nr = Array.length ev.ev_reads and nw = Array.length ev.ev_write_nets in
  reserve_reads t nr;
  if nw > 0 then reserve_writes t nw ev.ev_write_values.(0);
  let s = ev.ev_uid mod t.c_capacity in
  set_slot t s ~uid:ev.ev_uid ~instant:ev.ev_instant ~kind:ev.ev_kind
    ~block:ev.ev_block ~tag:ev.ev_tag ~src:ev.ev_src ~n_reads:nr ~n_writes:nw;
  Array.blit ev.ev_reads 0 t.r_arena (s * t.r_stride) nr;
  if nw > 0 then begin
    Array.blit ev.ev_write_nets 0 t.w_nets (s * t.w_stride) nw;
    Array.blit ev.ev_write_values 0 t.w_vals (s * t.w_stride) nw
  end

let event_at t s =
  let nw = t.s_n_writes.(s) in
  { ev_uid = t.s_uid.(s);
    ev_instant = t.s_instant.(s);
    ev_kind = kinds.(t.s_kind.(s));
    ev_block = t.s_block.(s);
    ev_tag = t.s_tag.(s);
    ev_src = t.s_src.(s);
    ev_reads = Array.sub t.r_arena (s * t.r_stride) t.s_n_reads.(s);
    ev_write_nets = Array.sub t.w_nets (s * t.w_stride) nw;
    ev_write_values =
      (if nw = 0 then [||] else Array.sub t.w_vals (s * t.w_stride) nw) }

(* ----------------------------- recording -------------------------- *)

let record_binding t ~kind ~net ?(src = -1) v =
  if not t.c_open then invalid_arg "Causal.record_binding: no instant open";
  if net < 0 || net >= t.c_n_nets then
    invalid_arg "Causal.record_binding: net out of range";
  let delay = kind = Delay && src >= 0 in
  let src_uid = if delay then t.c_prev.(src) else -1 in
  let n_reads = if delay then 2 else 0 in
  reserve_reads t n_reads;
  reserve_writes t 1 v;
  let uid = t.c_pushed in
  let s = uid mod t.c_capacity in
  set_slot t s ~uid ~instant:t.c_instant ~kind ~block:(-1) ~tag:no_tag ~src
    ~n_reads ~n_writes:1;
  if delay then begin
    t.r_arena.(s * t.r_stride) <- src;
    t.r_arena.((s * t.r_stride) + 1) <- src_uid
  end;
  t.w_nets.(s * t.w_stride) <- net;
  t.w_vals.(s * t.w_stride) <- v;
  t.c_pushed <- uid + 1;
  t.c_cur.(net) <- uid

let grow_reads t need =
  if 2 * need > Array.length t.c_reads then begin
    let bigger = Array.make (max (2 * need) (2 * Array.length t.c_reads)) 0 in
    Array.blit t.c_reads 0 bigger 0 (2 * t.c_n_reads);
    t.c_reads <- bigger
  end

let eval_begin t ~block ~reads =
  if not t.c_open then invalid_arg "Causal.eval_begin: no instant open";
  if t.c_ev_open then invalid_arg "Causal.eval_begin: evaluation already open";
  t.c_ev_open <- true;
  t.c_ev_block <- block;
  t.c_ev_tag <- no_tag;
  t.c_n_writes <- 0;
  let n = Array.length reads in
  grow_reads t n;
  t.c_n_reads <- n;
  let dst = t.c_reads and cur = t.c_cur in
  for p = 0 to n - 1 do
    let net = reads.(p) in
    dst.(2 * p) <- net;
    dst.((2 * p) + 1) <- cur.(net)
  done

let eval_write t ~net v =
  if not t.c_ev_open then invalid_arg "Causal.eval_write: no evaluation open";
  let n = t.c_n_writes in
  if n >= Array.length t.c_w_vals then begin
    let cap = max 8 (2 * n) in
    let nets = Array.make cap 0 and vals = Array.make cap v in
    Array.blit t.c_w_nets 0 nets 0 n;
    Array.blit t.c_w_vals 0 vals 0 n;
    t.c_w_nets <- nets;
    t.c_w_vals <- vals
  end;
  t.c_w_nets.(n) <- net;
  t.c_w_vals.(n) <- v;
  t.c_n_writes <- n + 1

let set_tag t tag =
  if not t.c_ev_open then invalid_arg "Causal.set_tag: no evaluation open";
  t.c_ev_tag <- tag

let pending_writes t = t.c_n_writes

let pending_tag t = t.c_ev_tag

(* Copies are element loops, not [Array.blit]: an event moves a handful
   of entries, below the cost of the runtime call. *)
let eval_commit t =
  if not t.c_ev_open then invalid_arg "Causal.eval_commit: no evaluation open";
  t.c_ev_open <- false;
  let nw = t.c_n_writes and nr = 2 * t.c_n_reads in
  if nw > 0 || String.length t.c_ev_tag > 0 then begin
    reserve_reads t nr;
    if nw > 0 then reserve_writes t nw t.c_w_vals.(0);
    let uid = t.c_pushed in
    let s = uid mod t.c_capacity in
    set_slot t s ~uid ~instant:t.c_instant ~kind:Eval ~block:t.c_ev_block
      ~tag:t.c_ev_tag ~src:(-1) ~n_reads:nr ~n_writes:nw;
    let rb = s * t.r_stride and wb = s * t.w_stride in
    for i = 0 to nr - 1 do
      t.r_arena.(rb + i) <- t.c_reads.(i)
    done;
    for i = 0 to nw - 1 do
      let net = t.c_w_nets.(i) in
      t.w_nets.(wb + i) <- net;
      t.w_vals.(wb + i) <- t.c_w_vals.(i);
      t.c_cur.(net) <- uid
    done;
    t.c_pushed <- uid + 1
  end;
  t.c_n_writes <- 0;
  t.c_n_reads <- 0

(* -------------------------- loss accounting ----------------------- *)

let pushed t = t.c_pushed

let retained t = min t.c_pushed t.c_capacity

let overwrites t = max 0 (t.c_pushed - t.c_capacity)

let truncated_slices t = t.c_truncated

let data_loss t = (overwrites t, t.c_truncated)

(* ------------------------------ queries --------------------------- *)

let first_retained t = max 0 (t.c_pushed - t.c_capacity)

let present t uid =
  uid >= first_retained t && uid < t.c_pushed
  && t.s_uid.(uid mod t.c_capacity) = uid

let find t uid =
  if present t uid then Some (event_at t (uid mod t.c_capacity)) else None

let events ?instant t =
  let acc = ref [] in
  for uid = t.c_pushed - 1 downto first_retained t do
    let s = uid mod t.c_capacity in
    if
      t.s_uid.(s) = uid
      && match instant with None -> true | Some i -> t.s_instant.(s) = i
    then acc := event_at t s :: !acc
  done;
  !acc

let writes_net t s net =
  let base = s * t.w_stride in
  let rec loop i =
    i < t.s_n_writes.(s) && (t.w_nets.(base + i) = net || loop (i + 1))
  in
  loop 0

(* Events are pushed in instant order, so the scan can stop as soon as
   it walks past the target instant. *)
let writer t ~net ~instant =
  let rec loop uid =
    if uid < first_retained t then None
    else
      let s = uid mod t.c_capacity in
      if t.s_uid.(s) <> uid then loop (uid - 1)
      else if t.s_instant.(s) < instant then None
      else if t.s_instant.(s) = instant && writes_net t s net then
        Some (event_at t s)
      else loop (uid - 1)
  in
  loop (t.c_pushed - 1)

type 'v slice = {
  sl_net : int;
  sl_instant : int;
  sl_value : 'v option;
  sl_root : int;
  sl_events : 'v event list;
  sl_bottom : (int * int) list;
  sl_missing : (int * int) list;
  sl_truncated : bool;
}

let value_written ev net =
  let rec loop i =
    if i >= Array.length ev.ev_write_nets then None
    else if ev.ev_write_nets.(i) = net then Some ev.ev_write_values.(i)
    else loop (i + 1)
  in
  loop 0

(* Is the retained window known to be missing events of [instant]? *)
let horizon_hides t inst =
  overwrites t > 0
  &&
  let oldest = first_retained t in
  (not (present t oldest))
  || inst <= t.s_instant.(oldest mod t.c_capacity)

let slice t ~net ~instant =
  let included = Hashtbl.create 32 in
  let bottom = ref [] and missing = ref [] in
  let add_once lst p = if not (List.mem p !lst) then lst := p :: !lst in
  let frontier = Queue.create () in
  let enqueue uid = if not (Hashtbl.mem included uid) then Queue.push uid frontier in
  let root, value =
    match writer t ~net ~instant with
    | Some ev ->
        enqueue ev.ev_uid;
        (ev.ev_uid, value_written ev net)
    | None ->
        if horizon_hides t instant then add_once missing (net, instant)
        else add_once bottom (net, instant);
        (-1, None)
  in
  while not (Queue.is_empty frontier) do
    let uid = Queue.pop frontier in
    if not (Hashtbl.mem included uid) then begin
      match find t uid with
      | None -> ()
      | Some ev ->
          Hashtbl.replace included uid ev;
          let dep_instant =
            match ev.ev_kind with Delay -> ev.ev_instant - 1 | _ -> ev.ev_instant
          in
          let reads = ev.ev_reads in
          for p = 0 to (Array.length reads / 2) - 1 do
            let rnet = reads.(2 * p) and ruid = reads.((2 * p) + 1) in
            if ruid < 0 then
              (* a ⊥ read is a leaf unless the net's value was simply
                 established before the retention horizon *)
              if dep_instant >= 0 && horizon_hides t dep_instant then
                add_once missing (rnet, dep_instant)
              else add_once bottom (rnet, dep_instant)
            else if present t ruid then enqueue ruid
            else add_once missing (rnet, dep_instant)
          done
    end
  done;
  let evs =
    Hashtbl.fold (fun _ ev acc -> ev :: acc) included []
    |> List.sort (fun a b -> compare a.ev_uid b.ev_uid)
  in
  let truncated = !missing <> [] in
  if truncated then t.c_truncated <- t.c_truncated + 1;
  { sl_net = net;
    sl_instant = instant;
    sl_value = value;
    sl_root = root;
    sl_events = evs;
    sl_bottom = List.rev !bottom;
    sl_missing = List.rev !missing;
    sl_truncated = truncated }

(* ---------------------- restoration / serialization --------------- *)

(* A [state] carries the per-net writer registers explicitly, which is
   what makes a checkpointed log *continuable*: the live registers may
   reference evicted events the ring no longer holds, and the resumed
   recording must produce uids and read edges bit-identical to the
   uninterrupted run's. *)

type 'v state = {
  st_capacity : int;
  st_pushed : int;
  st_instant : int;
  st_truncated : int;
  st_writers : int array;
  st_events : 'v event list;
}

let export_state t =
  if t.c_open then invalid_arg "Causal.export_state: instant open";
  { st_capacity = t.c_capacity;
    st_pushed = t.c_pushed;
    st_instant = t.c_instant;
    st_truncated = t.c_truncated;
    st_writers = Array.copy t.c_cur;
    st_events = events t }

(* A state comes from disk: every register and event is checked against
   the log's own invariants before anything is stored, so a corrupt
   checkpoint fails with a named error instead of an out-of-bounds
   access (or, worse, a ring that answers queries wrongly). *)
let validate st =
  let bad fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Causal.of_state: " ^ m)) fmt
  in
  if st.st_capacity < 1 then bad "capacity must be >= 1";
  if st.st_pushed < 0 then bad "negative push count %d" st.st_pushed;
  if st.st_instant < -1 then bad "instant %d out of range" st.st_instant;
  if st.st_truncated < 0 then bad "negative truncated-slice count";
  let n_nets = Array.length st.st_writers in
  let lo = max 0 (st.st_pushed - st.st_capacity) in
  Array.iteri
    (fun net uid ->
      if uid < -1 || uid >= st.st_pushed then
        bad "writer of net %d is uid %d, never pushed" net uid)
    st.st_writers;
  let net_ok n = n >= 0 && n < n_nets in
  ignore
    (List.fold_left
       (fun prev ev ->
         let u = ev.ev_uid in
         if u < lo || u >= st.st_pushed then
           bad "event uid %d outside the retention window [%d, %d)" u lo
             st.st_pushed;
         if u <= prev then bad "event uid %d out of push order" u;
         if ev.ev_instant < 0 || ev.ev_instant > st.st_instant then
           bad "event %d: instant %d out of range" u ev.ev_instant;
         if ev.ev_block < -1 then bad "event %d: block %d" u ev.ev_block;
         if ev.ev_src <> -1 && not (net_ok ev.ev_src) then
           bad "event %d: source net %d out of range" u ev.ev_src;
         let reads = ev.ev_reads in
         if Array.length reads mod 2 <> 0 then
           bad "event %d: odd-length reads" u;
         for p = 0 to (Array.length reads / 2) - 1 do
           if not (net_ok reads.(2 * p)) then
             bad "event %d: read net %d out of range" u reads.(2 * p);
           let ru = reads.((2 * p) + 1) in
           if ru < -1 || ru >= u then
             bad "event %d: read producer uid %d is not an earlier event" u ru
         done;
         if Array.length ev.ev_write_values <> Array.length ev.ev_write_nets
         then bad "event %d: write nets and values differ in length" u;
         Array.iter
           (fun n ->
             if not (net_ok n) then
               bad "event %d: write net %d out of range" u n)
           ev.ev_write_nets;
         u)
       (lo - 1) st.st_events)

let of_state st =
  validate st;
  let n_nets = Array.length st.st_writers in
  let t = create ~capacity:st.st_capacity ~n_nets () in
  List.iter (store t) st.st_events;
  t.c_pushed <- st.st_pushed;
  t.c_instant <- st.st_instant;
  t.c_truncated <- st.st_truncated;
  Array.blit st.st_writers 0 t.c_cur 0 n_nets;
  t

let kind_name = function
  | Eval -> "eval"
  | Input -> "input"
  | Delay -> "delay"
  | Folded -> "folded"

let kind_of_name = function
  | "eval" -> Eval
  | "input" -> Input
  | "delay" -> Delay
  | "folded" -> Folded
  | s -> invalid_arg ("Causal.kind_of_name: " ^ s)

let event_json ~render ev =
  let reads =
    List.init
      (Array.length ev.ev_reads / 2)
      (fun p ->
        Json.List
          [ Json.Int ev.ev_reads.(2 * p); Json.Int ev.ev_reads.((2 * p) + 1) ])
  in
  let writes =
    List.init (Array.length ev.ev_write_nets) (fun i ->
        Json.List
          [ Json.Int ev.ev_write_nets.(i); render ev.ev_write_values.(i) ])
  in
  Json.Obj
    ([ ("uid", Json.Int ev.ev_uid);
       ("instant", Json.Int ev.ev_instant);
       ("kind", Json.Str (kind_name ev.ev_kind));
       ("block", Json.Int ev.ev_block) ]
    @ (if ev.ev_tag = "" then [] else [ ("tag", Json.Str ev.ev_tag) ])
    @ (if ev.ev_src < 0 then [] else [ ("src", Json.Int ev.ev_src) ])
    @ [ ("reads", Json.List reads); ("writes", Json.List writes) ])

let event_of_json ~unrender j =
  let get k =
    match Json.member k j with
    | Some v -> v
    | None -> invalid_arg ("Causal.event_of_json: missing " ^ k)
  in
  let int k =
    match get k with
    | Json.Int n -> n
    | _ -> invalid_arg ("Causal.event_of_json: " ^ k)
  in
  let opt_int k d = match Json.member k j with Some (Json.Int n) -> n | _ -> d in
  let reads =
    match get "reads" with
    | Json.List pairs ->
        let a = Array.make (2 * List.length pairs) 0 in
        List.iteri
          (fun p pair ->
            match pair with
            | Json.List [ Json.Int net; Json.Int uid ] ->
                a.(2 * p) <- net;
                a.((2 * p) + 1) <- uid
            | _ -> invalid_arg "Causal.event_of_json: bad read")
          pairs;
        a
    | _ -> invalid_arg "Causal.event_of_json: reads"
  in
  let wnets, wvals =
    match get "writes" with
    | Json.List ws ->
        let n = List.length ws in
        let nets = Array.make n 0 in
        let vals =
          Array.init n (fun i ->
              match List.nth ws i with
              | Json.List [ Json.Int net; v ] ->
                  nets.(i) <- net;
                  unrender v
              | _ -> invalid_arg "Causal.event_of_json: bad write")
        in
        (nets, vals)
    | _ -> invalid_arg "Causal.event_of_json: writes"
  in
  { ev_uid = int "uid";
    ev_instant = int "instant";
    ev_kind =
      (match get "kind" with
      | Json.Str s -> kind_of_name s
      | _ -> invalid_arg "Causal.event_of_json: kind");
    ev_block = int "block";
    ev_tag =
      (match Json.member "tag" j with Some (Json.Str s) -> s | _ -> "");
    ev_src = opt_int "src" (-1);
    ev_reads = reads;
    ev_write_nets = wnets;
    ev_write_values = wvals }

let events_json ~render t =
  Json.Obj
    [ ("capacity", Json.Int t.c_capacity);
      ("pushed", Json.Int t.c_pushed);
      ("overwrites", Json.Int (overwrites t));
      ("truncated_slices", Json.Int t.c_truncated);
      ("events", Json.List (List.map (event_json ~render) (events t))) ]

let slice_json ~render sl =
  let pair (net, inst) =
    Json.Obj [ ("net", Json.Int net); ("instant", Json.Int inst) ]
  in
  Json.Obj
    [ ("net", Json.Int sl.sl_net);
      ("instant", Json.Int sl.sl_instant);
      ( "value",
        match sl.sl_value with Some v -> render v | None -> Json.Null );
      ("root", Json.Int sl.sl_root);
      ("events", Json.List (List.map (event_json ~render) sl.sl_events));
      ("bottom", Json.List (List.map pair sl.sl_bottom));
      ("missing", Json.List (List.map pair sl.sl_missing));
      ("truncated", Json.Bool sl.sl_truncated) ]
