type policy = Round_robin | Seeded of int

type port_value = Scalar of Value.t | Elements of Value.t array

type access =
  | Read_static of { cls : string; field : string }
  | Write_static of { cls : string; field : string; value : Value.t }
  | Port of { native : string; port : int; value : port_value }

type event = { thread : int; access : access }

let description e =
  match e.access with
  | Read_static { cls; field } -> Printf.sprintf "read %s.%s" cls field
  | Write_static { cls; field; value } ->
      Printf.sprintf "write %s.%s = %s" cls field (Value.to_display value)
  | Port { native; port; value } ->
      let value =
        match value with
        | Scalar v -> Value.to_display v
        | Elements a ->
            "["
            ^ String.concat ";" (Array.to_list (Array.map Value.to_display a))
            ^ "]"
      in
      Printf.sprintf "%s(%d, %s)" native port value

type _ Effect.t +=
  | Yield : unit Effect.t
  | Spawn : int * (unit -> unit) -> unit Effect.t
  | Join : int -> unit Effect.t

exception Deadlock of string

type scheduler = {
  mutable runnable : (int * (unit -> unit)) list;
  finished : (int, unit) Hashtbl.t;
  waiters : (int, (int * (unit -> unit)) list) Hashtbl.t;
  rng : Random.State.t option;
  mutable current : int;
  mutable live : int;
  mutable trace : event list;
}

let state : scheduler option ref = ref None

(* Set by [pick] when two or more threads were runnable; cleared when a
   run starts, so it survives a run that raised. *)
let branched = ref false

let last_run_branched () = !branched

let active () = Option.is_some !state

let current () = match !state with Some s -> s.current | None -> -1

let note access =
  match !state with
  | Some s -> s.trace <- { thread = s.current; access } :: s.trace
  | None -> ()

(* With nothing else runnable, a yield would enqueue the continuation
   and pick it straight back: the pick is taken in place, drawing the
   policy's random stream exactly as [pick] would, without the effect. *)
let maybe_yield () =
  match !state with
  | None -> ()
  | Some { runnable = []; rng; _ } -> (
      match rng with Some r -> ignore (Random.State.int r 1) | None -> ())
  | Some _ -> Effect.perform Yield

let push s tid thunk = s.runnable <- s.runnable @ [ (tid, thunk) ]

let pick s =
  match s.runnable with
  | [] -> None
  | entries ->
      let n = List.length entries in
      if n > 1 then branched := true;
      let index =
        match s.rng with Some rng -> Random.State.int rng n | None -> 0
      in
      let chosen = List.nth entries index in
      s.runnable <- List.filteri (fun i _ -> i <> index) entries;
      Some chosen

let schedule s =
  match pick s with
  | Some (tid, thunk) ->
      s.current <- tid;
      thunk ()
  | None ->
      if s.live > 0 && Hashtbl.length s.waiters > 0 then
        raise (Deadlock "all remaining threads are blocked in join")

let finish s tid =
  Hashtbl.replace s.finished tid ();
  s.live <- s.live - 1;
  (match Hashtbl.find_opt s.waiters tid with
  | Some thunks ->
      Hashtbl.remove s.waiters tid;
      List.iter (fun (waiter, thunk) -> push s waiter thunk) thunks
  | None -> ());
  schedule s

(* Each fiber runs under a deep handler; yields enqueue the continuation
   and re-enter the scheduler. *)
let rec run_fiber s tid body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> finish s tid);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, _) continuation) ->
                  push s tid (fun () -> continue k ());
                  schedule s)
          | Spawn (child_tid, child_body) ->
              Some
                (fun (k : (a, _) continuation) ->
                  s.live <- s.live + 1;
                  push s child_tid (fun () -> run_fiber s child_tid child_body);
                  continue k ())
          | Join target ->
              Some
                (fun (k : (a, _) continuation) ->
                  if Hashtbl.mem s.finished target then continue k ()
                  else begin
                    let waiter = s.current in
                    let existing =
                      Option.value ~default:[] (Hashtbl.find_opt s.waiters target)
                    in
                    Hashtbl.replace s.waiters target
                      ((waiter, fun () -> continue k ()) :: existing);
                    schedule s
                  end)
          | _ -> None);
    }

let run ~policy main =
  if active () then invalid_arg "Threads.run is not reentrant";
  let rng =
    match policy with
    | Round_robin -> None
    | Seeded seed -> Some (Random.State.make [| seed |])
  in
  let s =
    { runnable = []; finished = Hashtbl.create 8; waiters = Hashtbl.create 8;
      rng; current = -1; live = 1; trace = [] }
  in
  state := Some s;
  branched := false;
  Fun.protect ~finally:(fun () -> state := None) (fun () ->
      run_fiber s (-1) main;
      List.rev s.trace)
