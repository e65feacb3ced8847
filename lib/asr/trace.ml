module Json = Telemetry.Json
module Causal = Telemetry.Causal

type t = {
  t_system : string;
  t_strategy : Fixpoint.strategy;
  t_policy : Supervisor.policy option;
  t_escalate_after : int;
  t_inject : Inject.spec list;
  t_seed : int;
  t_capacity : int;
  t_n_nets : int;
  t_blocks : string array;
  t_producers : int array;
      (* net -> producing block index; -2 input, -3 delay, -1 unwritten *)
  t_inputs : (string * int) array;
  t_outputs : (string * int) array;
  t_stream : (string * Domain.t) list list;
  t_nets : Domain.t array array;
  t_out_stream : (string * Domain.t) list list;
  t_iterations : int array;
  t_faults : Json.t list;
  t_fatal : string option;
  t_events : Domain.t Causal.event list;
  t_pushed : int;
  t_overwrites : int;
  mutable t_log : Domain.t Causal.t option;
}

(* ------------------------------------------------------------------ *)
(* Exact value codec — shared with Checkpoint via Codec                *)

let malformed what = invalid_arg ("Trace.of_json: malformed " ^ what)
let value_json = Codec.value_json
let value_of_json = Codec.value_of_json
let value_eq = Codec.value_eq

(* ------------------------------------------------------------------ *)
(* Recording                                                          *)

let assemble ~system ~strategy ?policy ?(escalate_after = 3) ?(inject = [])
    ?(seed = 0) ~graph:compiled ~causal ~stream ~nets ~outputs ~iterations
    ?(faults = []) ?fatal () =
  let producers = Array.make compiled.Graph.n_nets (-1) in
  Array.iteri
    (fun bi (_, _, out_nets) ->
      Array.iter (fun n -> producers.(n) <- bi) out_nets)
    compiled.Graph.c_blocks;
  Array.iter
    (fun (_, out_net, _) -> producers.(out_net) <- -3)
    compiled.Graph.c_delays;
  Array.iter (fun (_, net) -> producers.(net) <- -2) compiled.Graph.c_inputs;
  let overwrites, _ = Causal.data_loss causal in
  {
    t_system = system;
    t_strategy = strategy;
    t_policy = policy;
    t_escalate_after = escalate_after;
    t_inject = inject;
    t_seed = seed;
    t_capacity = Causal.capacity causal;
    t_n_nets = compiled.Graph.n_nets;
    t_blocks =
      Array.map (fun (b, _, _) -> b.Block.name) compiled.Graph.c_blocks;
    t_producers = producers;
    t_inputs = compiled.Graph.c_inputs;
    t_outputs = compiled.Graph.c_outputs;
    t_stream = stream;
    t_nets = nets;
    t_out_stream = outputs;
    t_iterations = iterations;
    t_faults = faults;
    t_fatal = fatal;
    t_events = Causal.events causal;
    t_pushed = Causal.pushed causal;
    t_overwrites = overwrites;
    t_log = None;
  }

let record ?(strategy = Fixpoint.Scheduled) ?policy ?(escalate_after = 3)
    ?(inject = []) ?(seed = 0) ?(capacity = 65536) graph stream =
  let injector = if inject = [] then None else Some (Inject.make inject) in
  let graph' =
    match injector with
    | None -> graph
    | Some inj -> Inject.instrument inj graph
  in
  let compiled = Graph.compile graph' in
  let supervisor =
    Option.map (fun p -> Supervisor.create ~policy:p ~escalate_after ()) policy
  in
  let causal =
    Causal.create ~capacity ~n_nets:compiled.Graph.n_nets ()
  in
  let sim = Simulate.create ~strategy ?supervisor ~causal graph' in
  let nets = ref [] and outs = ref [] and iters = ref [] in
  let fatal = ref None in
  (try
     List.iter
       (fun inputs ->
         match Simulate.run sim [ inputs ] with
         | [ e ] ->
             outs := e.Simulate.outputs :: !outs;
             iters := e.Simulate.iterations :: !iters;
             nets := Simulate.net_values sim :: !nets;
             Option.iter Inject.tick injector
         | _ -> assert false)
       stream
   with Supervisor.Fatal f -> fatal := Some (Supervisor.fault_to_string f));
  assemble ~system:(Graph.name graph) ~strategy ?policy ~escalate_after
    ~inject ~seed ~graph:compiled ~causal ~stream
    ~nets:(Array.of_list (List.rev !nets))
    ~outputs:(List.rev !outs)
    ~iterations:(Array.of_list (List.rev !iters))
    ~faults:
      (match supervisor with
      | None -> []
      | Some s -> List.map Supervisor.fault_to_json (Supervisor.faults s))
    ?fatal:!fatal ()

let replay t graph =
  record ~strategy:t.t_strategy ?policy:t.t_policy
    ~escalate_after:t.t_escalate_after ~inject:t.t_inject ~seed:t.t_seed
    ~capacity:t.t_capacity graph t.t_stream

(* ------------------------------------------------------------------ *)
(* Inspection                                                         *)

let system t = t.t_system
let strategy t = t.t_strategy
let n_nets t = t.t_n_nets
let block_names t = Array.copy t.t_blocks
let instants t = Array.length t.t_nets
let stream t = t.t_stream
let outputs t = t.t_out_stream
let iterations t = Array.copy t.t_iterations

let nets_at t i =
  if i < 0 || i >= Array.length t.t_nets then None
  else Some (Array.copy t.t_nets.(i))

let output_net t name =
  Array.find_opt (fun (n, _) -> n = name) t.t_outputs |> Option.map snd

let fault_count t = List.length t.t_faults
let faults t = t.t_faults
let fatal t = t.t_fatal
let events t = t.t_events

let log t =
  match t.t_log with
  | Some l -> l
  | None ->
      (* Restoring at the recorded capacity preserves the retention
         horizon, so slices over the restored log report the same
         truncation the live ring would. *)
      let l = Causal.restore ~capacity:t.t_capacity ~n_nets:t.t_n_nets t.t_events in
      t.t_log <- Some l;
      l

let data_loss t = (t.t_overwrites, Causal.truncated_slices (log t))

let producer t net =
  if net < 0 || net >= t.t_n_nets then "?"
  else
    match t.t_producers.(net) with
    | bi when bi >= 0 && bi < Array.length t.t_blocks -> t.t_blocks.(bi)
    | -2 -> (
        match Array.find_opt (fun (_, n) -> n = net) t.t_inputs with
        | Some (name, _) -> "input:" ^ name
        | None -> "input")
    | -3 -> "delay"
    | _ -> "unwritten"

(* ------------------------------------------------------------------ *)
(* Why-provenance                                                     *)

let why t ~net ~instant = Causal.slice (log t) ~net ~instant

let value_str (v : Domain.t) =
  match v with Domain.Bottom -> "⊥" | Domain.Def d -> Data.to_string d

let slice_to_string t sl =
  let buf = Buffer.create 256 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  line "why net %d (%s) @ instant %d = %s" sl.Causal.sl_net
    (producer t sl.Causal.sl_net)
    sl.Causal.sl_instant
    (match sl.Causal.sl_value with None -> "⊥" | Some v -> value_str v);
  let by_uid = Hashtbl.create 16 in
  List.iter
    (fun ev -> Hashtbl.replace by_uid ev.Causal.ev_uid ev)
    sl.Causal.sl_events;
  let seen = Hashtbl.create 16 in
  let rec go indent uid =
    let pad = String.make indent ' ' in
    match Hashtbl.find_opt by_uid uid with
    | None -> line "%s[%d] (lost to ring eviction)" pad uid
    | Some ev ->
        if Hashtbl.mem seen uid then line "%s[%d] (shown above)" pad uid
        else begin
          Hashtbl.add seen uid ();
          let what =
            match ev.Causal.ev_kind with
            | Causal.Eval ->
                let b = ev.Causal.ev_block in
                Printf.sprintf "eval %s"
                  (if b >= 0 && b < Array.length t.t_blocks then t.t_blocks.(b)
                   else string_of_int b)
            | Causal.Input ->
                if Array.length ev.Causal.ev_write_nets > 0 then
                  producer t ev.Causal.ev_write_nets.(0)
                else "input"
            | Causal.Delay ->
                Printf.sprintf "delay from net %d @ instant %d"
                  ev.Causal.ev_src
                  (ev.Causal.ev_instant - 1)
            | Causal.Folded -> "folded constant"
          in
          let tag =
            if ev.Causal.ev_tag = "" then ""
            else " [" ^ ev.Causal.ev_tag ^ "]"
          in
          let writes =
            String.concat ", "
              (Array.to_list
                 (Array.mapi
                    (fun k net ->
                      Printf.sprintf "net %d=%s" net
                        (value_str ev.Causal.ev_write_values.(k)))
                    ev.Causal.ev_write_nets))
          in
          line "%s[%d] %s%s @ instant %d -> %s" pad ev.Causal.ev_uid what tag
            ev.Causal.ev_instant writes;
          let nr = Array.length ev.Causal.ev_reads / 2 in
          for k = 0 to nr - 1 do
            let rnet = ev.Causal.ev_reads.(2 * k)
            and ruid = ev.Causal.ev_reads.((2 * k) + 1) in
            if ruid >= 0 then go (indent + 2) ruid
            else line "%s  net %d = ⊥ (never established)" pad rnet
          done
        end
  in
  (if sl.Causal.sl_root >= 0 then go 2 sl.Causal.sl_root
   else
     match sl.Causal.sl_value with
     | None when sl.Causal.sl_truncated ->
         line "  (writer lost to ring eviction)"
     | None -> line "  (no writer: the net stayed ⊥)"
     | Some _ -> ());
  if sl.Causal.sl_bottom <> [] then
    line "  bottom leaves: %s"
      (String.concat ", "
         (List.map
            (fun (n, i) -> Printf.sprintf "net %d@%d" n i)
            sl.Causal.sl_bottom));
  if sl.Causal.sl_missing <> [] then
    line "  lost to ring eviction: %s"
      (String.concat ", "
         (List.map
            (fun (n, i) -> Printf.sprintf "net %d@%d" n i)
            sl.Causal.sl_missing));
  if sl.Causal.sl_truncated then
    line "  (slice truncated at the retention horizon)";
  Buffer.contents buf

let slice_json t sl =
  match Causal.slice_json ~render:value_json sl with
  | Json.Obj kvs ->
      Json.Obj (("producer", Json.Str (producer t sl.Causal.sl_net)) :: kvs)
  | j -> j

(* ------------------------------------------------------------------ *)
(* First-divergence localization                                      *)

type divergence = {
  d_instant : int;
  d_net : int;
  d_block : int;
  d_producer : string;
  d_value_a : Domain.t;
  d_value_b : Domain.t;
  d_slice_a : Domain.t Causal.slice option;
  d_slice_b : Domain.t Causal.slice option;
}

exception Incomparable of string

let first_divergence a b =
  if a.t_n_nets <> b.t_n_nets then
    raise
      (Incomparable
         (Printf.sprintf "net counts differ (%d vs %d)" a.t_n_nets b.t_n_nets));
  let bindings_eq xa xb =
    List.length xa = List.length xb
    && List.for_all2
         (fun (na, va) (nb, vb) -> na = nb && value_eq va vb)
         xa xb
  in
  if
    List.length a.t_stream <> List.length b.t_stream
    || not (List.for_all2 bindings_eq a.t_stream b.t_stream)
  then raise (Incomparable "input streams differ");
  let na = Array.length a.t_nets and nb = Array.length b.t_nets in
  let missing i =
    {
      d_instant = i;
      d_net = -1;
      d_block = -1;
      d_producer = (if i >= na then "missing in A" else "missing in B");
      d_value_a = Domain.Bottom;
      d_value_b = Domain.Bottom;
      d_slice_a = None;
      d_slice_b = None;
    }
  in
  let localize i nets =
    (* Among the instant's divergent nets, blame the one whose
       establishing event in A comes first in causal order. *)
    let la = log a and lb = log b in
    let uid_of net =
      match Causal.writer la ~net ~instant:i with
      | Some ev -> ev.Causal.ev_uid
      | None -> max_int
    in
    let net =
      List.fold_left
        (fun best n -> if uid_of n < uid_of best then n else best)
        (List.hd nets) (List.tl nets)
    in
    let sa = Causal.slice la ~net ~instant:i in
    let sb = Causal.slice lb ~net ~instant:i in
    let block =
      match Causal.find la sa.Causal.sl_root with
      | Some ev -> ev.Causal.ev_block
      | None -> -1
    in
    {
      d_instant = i;
      d_net = net;
      d_block = block;
      d_producer = producer a net;
      d_value_a = a.t_nets.(i).(net);
      d_value_b = b.t_nets.(i).(net);
      d_slice_a = Some sa;
      d_slice_b = Some sb;
    }
  in
  let n = max na nb in
  let rec scan i =
    if i >= n then None
    else if i >= na || i >= nb then Some (missing i)
    else begin
      let va = a.t_nets.(i) and vb = b.t_nets.(i) in
      let diffs = ref [] in
      for net = a.t_n_nets - 1 downto 0 do
        if not (value_eq va.(net) vb.(net)) then diffs := net :: !diffs
      done;
      match !diffs with [] -> scan (i + 1) | nets -> Some (localize i nets)
    end
  in
  scan 0

let divergence_to_string d =
  if d.d_net < 0 then
    Printf.sprintf "first divergence at instant %d: instant %s" d.d_instant
      d.d_producer
  else
    let summary tag = function
      | None -> ""
      | Some sl ->
          Printf.sprintf "\n  %s: %d causal events%s%s" tag
            (List.length sl.Causal.sl_events)
            (match sl.Causal.sl_bottom with
            | [] -> ""
            | l -> Printf.sprintf ", %d bottom leaves" (List.length l))
            (if sl.Causal.sl_truncated then ", truncated" else "")
    in
    Printf.sprintf
      "first divergence at instant %d: net %d (%s, block %d): %s vs %s%s%s"
      d.d_instant d.d_net d.d_producer d.d_block (value_str d.d_value_a)
      (value_str d.d_value_b) (summary "A" d.d_slice_a)
      (summary "B" d.d_slice_b)

let divergence_json d =
  let slice = function
    | None -> Json.Null
    | Some sl -> Causal.slice_json ~render:value_json sl
  in
  Json.Obj
    [ ("instant", Json.Int d.d_instant);
      ("net", Json.Int d.d_net);
      ("block", Json.Int d.d_block);
      ("producer", Json.Str d.d_producer);
      ("value_a", value_json d.d_value_a);
      ("value_b", value_json d.d_value_b);
      ("slice_a", slice d.d_slice_a);
      ("slice_b", slice d.d_slice_b) ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)

let spec_json = Codec.spec_json

let bindings_json bs =
  Json.List
    (List.map
       (fun (name, v) -> Json.List [ Json.Str name; value_json v ])
       bs)

let vec_json vec = Json.List (Array.to_list (Array.map value_json vec))

let int_array_json a =
  Json.List (Array.to_list (Array.map (fun n -> Json.Int n) a))

let to_json t =
  Json.Obj
    [ ("version", Json.Int 1);
      ("system", Json.Str t.t_system);
      ("strategy", Json.Str (Fixpoint.strategy_name t.t_strategy));
      ( "policy",
        match t.t_policy with
        | None -> Json.Null
        | Some p -> Json.Str (Supervisor.policy_name p) );
      ("escalate_after", Json.Int t.t_escalate_after);
      ("inject", Json.List (List.map spec_json t.t_inject));
      ("seed", Json.Int t.t_seed);
      ("capacity", Json.Int t.t_capacity);
      ("n_nets", Json.Int t.t_n_nets);
      ( "blocks",
        Json.List
          (Array.to_list (Array.map (fun s -> Json.Str s) t.t_blocks)) );
      ("producers", int_array_json t.t_producers);
      ( "inputs",
        Json.List
          (Array.to_list
             (Array.map
                (fun (name, net) ->
                  Json.List [ Json.Str name; Json.Int net ])
                t.t_inputs)) );
      ( "outputs",
        Json.List
          (Array.to_list
             (Array.map
                (fun (name, net) ->
                  Json.List [ Json.Str name; Json.Int net ])
                t.t_outputs)) );
      ("stream", Json.List (List.map bindings_json t.t_stream));
      ("nets", Json.List (Array.to_list (Array.map vec_json t.t_nets)));
      ("out_stream", Json.List (List.map bindings_json t.t_out_stream));
      ("iterations", int_array_json t.t_iterations);
      ("faults", Json.List t.t_faults);
      ( "fatal",
        match t.t_fatal with None -> Json.Null | Some s -> Json.Str s );
      ("pushed", Json.Int t.t_pushed);
      ("overwrites", Json.Int t.t_overwrites);
      ( "events",
        Json.List
          (List.map (Causal.event_json ~render:value_json) t.t_events) ) ]

let equal a b = Json.to_string (to_json a) = Json.to_string (to_json b)

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> invalid_arg ("Trace.of_json: missing field " ^ name)

let int_field name j =
  match field name j with Json.Int n -> n | _ -> malformed name

let str_field name j =
  match field name j with Json.Str s -> s | _ -> malformed name

let list_field name j =
  match field name j with Json.List l -> l | _ -> malformed name

let int_array_of name l =
  Array.of_list
    (List.map (function Json.Int n -> n | _ -> malformed name) l)

let bindings_of_json name j =
  match j with
  | Json.List l ->
      List.map
        (function
          | Json.List [ Json.Str n; v ] -> (n, value_of_json v)
          | _ -> malformed name)
        l
  | _ -> malformed name

let ports_of name l =
  Array.of_list
    (List.map
       (function
         | Json.List [ Json.Str n; Json.Int net ] -> (n, net)
         | _ -> malformed name)
       l)

let spec_of_json = Codec.spec_of_json

let of_json j =
  (match Json.member "version" j with
  | Some (Json.Int 1) -> ()
  | _ -> invalid_arg "Trace.of_json: unsupported trace version");
  let strategy =
    match Fixpoint.strategy_of_string (str_field "strategy" j) with
    | Some s -> s
    | None -> malformed "strategy"
  in
  let policy =
    match field "policy" j with
    | Json.Null -> None
    | Json.Str s -> (
        match Supervisor.policy_of_string s with
        | Some p -> Some p
        | None -> malformed "policy")
    | _ -> malformed "policy"
  in
  {
    t_system = str_field "system" j;
    t_strategy = strategy;
    t_policy = policy;
    t_escalate_after = int_field "escalate_after" j;
    t_inject = List.map spec_of_json (list_field "inject" j);
    t_seed = int_field "seed" j;
    t_capacity = int_field "capacity" j;
    t_n_nets = int_field "n_nets" j;
    t_blocks =
      Array.of_list
        (List.map
           (function Json.Str s -> s | _ -> malformed "blocks")
           (list_field "blocks" j));
    t_producers = int_array_of "producers" (list_field "producers" j);
    t_inputs = ports_of "inputs" (list_field "inputs" j);
    t_outputs = ports_of "outputs" (list_field "outputs" j);
    t_stream = List.map (bindings_of_json "stream") (list_field "stream" j);
    t_nets =
      Array.of_list
        (List.map
           (function
             | Json.List l ->
                 Array.of_list (List.map value_of_json l)
             | _ -> malformed "nets")
           (list_field "nets" j));
    t_out_stream =
      List.map (bindings_of_json "out_stream") (list_field "out_stream" j);
    t_iterations = int_array_of "iterations" (list_field "iterations" j);
    t_faults = list_field "faults" j;
    t_fatal =
      (match field "fatal" j with
      | Json.Null -> None
      | Json.Str s -> Some s
      | _ -> malformed "fatal");
    t_events =
      List.map
        (Causal.event_of_json ~unrender:value_of_json)
        (list_field "events" j);
    t_pushed = int_field "pushed" j;
    t_overwrites = int_field "overwrites" j;
    t_log = None;
  }

let save t path = Durable.write_file path [ Json.to_string (to_json t); "\n" ]

let load path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_json (Json.parse contents)
