(* In-memory span recorder for the traced run. Spans are opened around
   calls into the libraries' public entry points, from the benchmark's
   own code; nothing inside the program is instrumented. *)

type span = {
  id : int;
  name : string;
  op : int;  (* the op this span belongs to; -1 outside any op *)
  parent : int;  (* -1 for a root *)
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  mutable enabled : bool;
  mutable spans : span list;  (* most recent first *)
  mutable next_id : int;
  mutable stack : int list;
  mutable current_op : int;
}

let global =
  { enabled = false; spans = []; next_id = 0; stack = []; current_op = -1 }

let enable on = global.enabled <- on

let enabled () = global.enabled

let clear () =
  global.spans <- [];
  global.stack <- [];
  global.current_op <- -1

let set_op op = global.current_op <- op

let now = Monotonic_clock.now

(* [with_span name f] runs [f], recording a span when tracing is on.
   With tracing off it is a plain call. *)
let with_span name f =
  let t = global in
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let op = t.current_op in
    let start_ns = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = now () in
        t.stack <- (match t.stack with _ :: r -> r | [] -> []);
        t.spans <- { id; name; op; parent; start_ns; stop_ns } :: t.spans)
      f
  end

let recorded () = List.rev global.spans

let duration_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Self time of each span: its duration minus the part of its interval
   that its direct children cover (children are clipped to the parent
   and merged, so overlaps are not subtracted twice). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max c.start_ns s.start_ns, min c.stop_ns s.stop_ns))
        |> List.filter (fun (a, b) -> Int64.compare a b < 0)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = if Int64.compare a reach < 0 then reach else a in
            if Int64.compare a b < 0 then
              (acc +. Int64.to_float (Int64.sub b a), b)
            else (acc, reach))
          (0.0, s.start_ns) kids
      in
      (s, duration_ns s -. covered))
    spans

(* Total self time per span name, in nanoseconds, with call counts. *)
let self_by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let total, calls =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0.0, 0)
      in
      Hashtbl.replace tbl s.name (total +. self, calls + 1))
    (self_times spans);
  tbl

let to_json spans =
  let open Telemetry.Json in
  List
    (List.map
       (fun s ->
         Obj
           [ ("id", Int s.id); ("name", Str s.name); ("op", Int s.op);
             ("parent", Int s.parent);
             ("start_ns", Str (Int64.to_string s.start_ns));
             ("end_ns", Str (Int64.to_string s.stop_ns)) ])
       spans)
