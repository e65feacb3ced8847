(* Reference model of the causal log for differential tests: a ring of
   whole event records, the straightforward layout the flat
   struct-of-arrays ring in [Telemetry.Causal] must agree with exactly
   (events, lookups, slices, and the continuable state, which the
   ring's streamed section must encode). Event and slice types are
   shared with [Telemetry.Causal] so results compare with [=]. *)

module C = Telemetry.Causal

type kind = C.kind = Eval | Input | Delay | Folded

type 'v event = 'v C.event = {
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

type 'v t = {
  c_capacity : int;
  c_n_nets : int;
  c_ring : 'v event option array;
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
  mutable c_w_vals : 'v option array;
  mutable c_n_writes : int;
  mutable c_truncated : int;
}

let create ?(capacity = 65536) ~n_nets () =
  if capacity < 1 then invalid_arg "Causal.create: capacity must be >= 1";
  if n_nets < 0 then invalid_arg "Causal.create: negative net count";
  { c_capacity = capacity;
    c_n_nets = n_nets;
    c_ring = Array.make capacity None;
    c_pushed = 0;
    c_instant = -1;
    c_open = false;
    c_cur = Array.make n_nets (-1);
    c_prev = Array.make n_nets (-1);
    c_ev_open = false;
    c_ev_block = -1;
    c_ev_tag = "";
    c_reads = Array.make 16 0;
    c_n_reads = 0;
    c_w_nets = Array.make 8 0;
    c_w_vals = Array.make 8 None;
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

(* ----------------------------- recording -------------------------- *)

let push t ev =
  t.c_ring.(t.c_pushed mod t.c_capacity) <- Some ev;
  t.c_pushed <- t.c_pushed + 1

let record_binding t ~kind ~net ?(src = -1) v =
  if not t.c_open then invalid_arg "Causal.record_binding: no instant open";
  if net < 0 || net >= t.c_n_nets then
    invalid_arg "Causal.record_binding: net out of range";
  let uid = t.c_pushed in
  let reads =
    match kind with
    | Delay when src >= 0 -> [| src; t.c_prev.(src) |]
    | _ -> [||]
  in
  push t
    { ev_uid = uid;
      ev_instant = t.c_instant;
      ev_kind = kind;
      ev_block = -1;
      ev_tag = "";
      ev_src = src;
      ev_reads = reads;
      ev_write_nets = [| net |];
      ev_write_values = [| v |] };
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
  t.c_ev_tag <- "";
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
  if n >= Array.length t.c_w_nets then begin
    let cap = 2 * Array.length t.c_w_nets in
    let nets = Array.make cap 0 and vals = Array.make cap None in
    Array.blit t.c_w_nets 0 nets 0 n;
    Array.blit t.c_w_vals 0 vals 0 n;
    t.c_w_nets <- nets;
    t.c_w_vals <- vals
  end;
  t.c_w_nets.(n) <- net;
  t.c_w_vals.(n) <- Some v;
  t.c_n_writes <- n + 1

let set_tag t tag =
  if not t.c_ev_open then invalid_arg "Causal.set_tag: no evaluation open";
  t.c_ev_tag <- tag

let pending_writes t = t.c_n_writes

let pending_tag t = t.c_ev_tag

let eval_commit t =
  if not t.c_ev_open then invalid_arg "Causal.eval_commit: no evaluation open";
  t.c_ev_open <- false;
  let nw = t.c_n_writes in
  if nw > 0 || t.c_ev_tag <> "" then begin
    let uid = t.c_pushed in
    let wnets = Array.sub t.c_w_nets 0 nw in
    let wvals =
      Array.init nw (fun i ->
          match t.c_w_vals.(i) with
          | Some v -> v
          | None -> assert false)
    in
    push t
      { ev_uid = uid;
        ev_instant = t.c_instant;
        ev_kind = Eval;
        ev_block = t.c_ev_block;
        ev_tag = t.c_ev_tag;
        ev_src = -1;
        ev_reads = Array.sub t.c_reads 0 (2 * t.c_n_reads);
        ev_write_nets = wnets;
        ev_write_values = wvals };
    for i = 0 to nw - 1 do
      t.c_cur.(wnets.(i)) <- uid
    done
  end;
  (* release the value pointers so the scratch does not pin them *)
  for i = 0 to nw - 1 do
    t.c_w_vals.(i) <- None
  done;
  t.c_n_writes <- 0;
  t.c_n_reads <- 0

(* -------------------------- loss accounting ----------------------- *)

let pushed t = t.c_pushed

let overwrites t = max 0 (t.c_pushed - t.c_capacity)

let truncated_slices t = t.c_truncated

let data_loss t = (overwrites t, t.c_truncated)

(* ------------------------------ queries --------------------------- *)

let first_retained t = max 0 (t.c_pushed - t.c_capacity)

let find t uid =
  if uid < first_retained t || uid >= t.c_pushed then None
  else
    match t.c_ring.(uid mod t.c_capacity) with
    | Some ev when ev.ev_uid = uid -> Some ev
    | _ -> None

let events ?instant t =
  let acc = ref [] in
  for uid = t.c_pushed - 1 downto first_retained t do
    match find t uid with
    | Some ev when (match instant with None -> true | Some i -> ev.ev_instant = i)
      ->
        acc := ev :: !acc
    | _ -> ()
  done;
  !acc

let writes_net ev net =
  let rec loop i =
    i < Array.length ev.ev_write_nets
    && (ev.ev_write_nets.(i) = net || loop (i + 1))
  in
  loop 0

(* Events are pushed in instant order, so the scan can stop as soon as
   it walks past the target instant. *)
let writer t ~net ~instant =
  let rec loop uid =
    if uid < first_retained t then None
    else
      match find t uid with
      | Some ev when ev.ev_instant < instant -> None
      | Some ev when ev.ev_instant = instant && writes_net ev net -> Some ev
      | _ -> loop (uid - 1)
  in
  loop (t.c_pushed - 1)

type 'v slice = 'v C.slice = {
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
  match find t (first_retained t) with
  | Some oldest -> inst <= oldest.ev_instant
  | None -> true

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
            else if find t ruid <> None then enqueue ruid
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

(* A [state] carries the per-net writer registers, so a log rebuilt
   from it keeps recording like the uninterrupted one. *)

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

let of_state st =
  if st.st_capacity < 1 then
    invalid_arg "Causal.of_state: capacity must be >= 1";
  let n_nets = Array.length st.st_writers in
  let t = create ~capacity:st.st_capacity ~n_nets () in
  List.iter
    (fun ev -> t.c_ring.(ev.ev_uid mod st.st_capacity) <- Some ev)
    st.st_events;
  t.c_pushed <- st.st_pushed;
  t.c_instant <- st.st_instant;
  t.c_truncated <- st.st_truncated;
  Array.blit st.st_writers 0 t.c_cur 0 n_nets;
  t
