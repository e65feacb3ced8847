type node_id = int

type endpoint = node_id * int

type node_kind =
  | Kblock of Block.t
  | Kdelay of Domain.t
  | Kinput of string
  | Koutput of string

(* Nodes live in a growable array and driven in-ports in a hash table:
   node lookup and the double-drive check are O(1), so building a
   100k-block net (the fusion scaling curve) stays linear instead of
   quadratic in channels. The compiled form is kept until the next
   edit, so every consumer of one graph shares one compilation. *)
type t = {
  gname : string;
  mutable nodes_arr : node_kind array;
  mutable n_nodes : int;
  mutable rev_channels : (endpoint * endpoint) list;
  driven : (endpoint, unit) Hashtbl.t;
  mutable compiled : compiled option;
}

and compiled = {
  n_nets : int;
  c_blocks : (Block.t * int array * int array) array;
  c_delays : (int * int * Domain.t) array;
  c_inputs : (string * int) array;
  c_outputs : (string * int) array;
  c_input_index : (string, int) Hashtbl.t;
  c_consumers : int array array;
  c_fingerprint : string Lazy.t;
}

let create gname =
  { gname;
    nodes_arr = [||];
    n_nodes = 0;
    rev_channels = [];
    driven = Hashtbl.create 64;
    compiled = None }

let name g = g.gname

let add_node g kind =
  let id = g.n_nodes in
  if id = Array.length g.nodes_arr then begin
    let grown = Array.make (max 16 (2 * id)) kind in
    Array.blit g.nodes_arr 0 grown 0 id;
    g.nodes_arr <- grown
  end;
  g.nodes_arr.(id) <- kind;
  g.n_nodes <- id + 1;
  g.compiled <- None;
  id

let add_block g b = add_node g (Kblock b)

let add_delay g ~init = add_node g (Kdelay init)

let add_input g label = add_node g (Kinput label)

let add_output g label = add_node g (Koutput label)

let nodes g = List.init g.n_nodes (fun i -> (i, g.nodes_arr.(i)))

let channels g = List.rev g.rev_channels

let node_kind g id =
  if id >= 0 && id < g.n_nodes then g.nodes_arr.(id)
  else invalid_arg (Printf.sprintf "graph %s: no node %d" g.gname id)

let arity_out g id =
  match node_kind g id with
  | Kblock b -> b.Block.n_out
  | Kdelay _ -> 1
  | Kinput _ -> 1
  | Koutput _ -> 0

let arity_in g id =
  match node_kind g id with
  | Kblock b -> b.Block.n_in
  | Kdelay _ -> 1
  | Kinput _ -> 0
  | Koutput _ -> 1

let node_label g id =
  match node_kind g id with
  | Kblock b -> Printf.sprintf "%s#%d" b.Block.name id
  | Kdelay init -> Printf.sprintf "delay(%s)#%d" (Domain.to_string init) id
  | Kinput label -> Printf.sprintf "in:%s" label
  | Koutput label -> Printf.sprintf "out:%s" label

let node_index id = id

let out_port id port = (id, port)

let in_port id port = (id, port)

let connect g ~src:(src_id, src_port) ~dst:(dst_id, dst_port) =
  if src_port < 0 || src_port >= arity_out g src_id then
    invalid_arg
      (Printf.sprintf "graph %s: %s has no output port %d" g.gname
         (node_label g src_id) src_port);
  if dst_port < 0 || dst_port >= arity_in g dst_id then
    invalid_arg
      (Printf.sprintf "graph %s: %s has no input port %d" g.gname
         (node_label g dst_id) dst_port);
  if Hashtbl.mem g.driven (dst_id, dst_port) then
    invalid_arg
      (Printf.sprintf "graph %s: input port %d of %s is already driven"
         g.gname dst_port (node_label g dst_id));
  Hashtbl.add g.driven (dst_id, dst_port) ();
  g.compiled <- None;
  g.rev_channels <- ((src_id, src_port), (dst_id, dst_port)) :: g.rev_channels

(* Rebuild the graph with every block passed through [f]. The callback
   receives the block's index in declaration order — the same index the
   block has in [compiled.c_blocks] — so fault injectors can target the
   compiled block [bi] directly. Arity must be preserved: nets are
   allocated per out-port, so a changed arity would re-wire the graph. *)
let map_blocks g f =
  let bi = ref 0 in
  let nodes' =
    Array.init g.n_nodes (fun id ->
        match g.nodes_arr.(id) with
        | Kblock b ->
            let b' = f !bi b in
            if b'.Block.n_in <> b.Block.n_in || b'.Block.n_out <> b.Block.n_out
            then
              invalid_arg
                (Printf.sprintf
                   "graph %s: map_blocks changed the arity of block %d (%s)"
                   g.gname !bi b.Block.name);
            incr bi;
            Kblock b'
        | other -> other)
  in
  { g with nodes_arr = nodes'; driven = Hashtbl.copy g.driven; compiled = None }

let count_kind g p =
  let n = ref 0 in
  for id = 0 to g.n_nodes - 1 do
    if p g.nodes_arr.(id) then incr n
  done;
  !n

let block_count g = count_kind g (function Kblock _ -> true | _ -> false)

let delay_count g = count_kind g (function Kdelay _ -> true | _ -> false)

let input_net c label = Hashtbl.find_opt c.c_input_index label

(* Block names and the net layout of every block, delay and port.
   Functions and initial values are not covered: a mutated block under
   its old name is what a first-divergence query exists to compare. *)
let render_fingerprint n_nets blocks delays inputs outputs =
  let module J = Telemetry.Json in
  let list f a = J.List (Array.to_list (Array.map f a)) in
  let ints = list (fun n -> J.Int n) in
  let pairs = list (fun (name, n) -> J.List [ J.Str name; J.Int n ]) in
  J.List
    [ J.Int n_nets;
      list
        (fun (b, ins, outs) ->
          J.List [ J.Str b.Block.name; ints ins; ints outs ])
        blocks;
      list (fun (i, o, _) -> ints [| i; o |]) delays;
      pairs inputs;
      pairs outputs ]
  |> J.to_string |> Digest.string |> Digest.to_hex

let fingerprint c = Lazy.force c.c_fingerprint

let compile_fresh g =
  let node_list = nodes g in
  (* One net per (node, out port). *)
  let net_of = Hashtbl.create 64 in
  let n_nets = ref 0 in
  List.iter
    (fun (id, _) ->
      for port = 0 to arity_out g id - 1 do
        Hashtbl.replace net_of (id, port) !n_nets;
        incr n_nets
      done)
    node_list;
  (* Map each in-port to the net of its driver. *)
  let driver = Hashtbl.create 64 in
  List.iter
    (fun (src, dst) -> Hashtbl.replace driver dst (Hashtbl.find net_of src))
    (channels g);
  let in_net id port =
    match Hashtbl.find_opt driver (id, port) with
    | Some net -> net
    | None ->
        invalid_arg
          (Printf.sprintf "graph %s: input port %d of %s is not connected"
             g.gname port (node_label g id))
  in
  let blocks = ref [] in
  let delays = ref [] in
  let inputs = ref [] in
  let outputs = ref [] in
  List.iter
    (fun (id, kind) ->
      match kind with
      | Kblock b ->
          let ins = Array.init b.Block.n_in (fun p -> in_net id p) in
          let outs = Array.init b.Block.n_out (fun p -> Hashtbl.find net_of (id, p)) in
          blocks := (b, ins, outs) :: !blocks
      | Kdelay init ->
          delays := (in_net id 0, Hashtbl.find net_of (id, 0), init) :: !delays
      | Kinput label -> inputs := (label, Hashtbl.find net_of (id, 0)) :: !inputs
      | Koutput label -> outputs := (label, in_net id 0) :: !outputs)
    node_list;
  let c_blocks = Array.of_list (List.rev !blocks) in
  let c_inputs = Array.of_list (List.rev !inputs) in
  let c_input_index = Hashtbl.create (Array.length c_inputs) in
  Array.iter (fun (label, net) -> Hashtbl.replace c_input_index label net) c_inputs;
  (* Reverse index: net -> blocks reading it (each block once, even when
     it reads the net on several ports). Drives the worklist evaluator. *)
  let rev_consumers = Array.make !n_nets [] in
  Array.iteri
    (fun bi (_, ins, _) ->
      Array.iter
        (fun net ->
          match rev_consumers.(net) with
          | b :: _ when b = bi -> ()
          | existing -> rev_consumers.(net) <- bi :: existing)
        ins)
    c_blocks;
  let n_nets = !n_nets
  and c_delays = Array.of_list (List.rev !delays)
  and c_outputs = Array.of_list (List.rev !outputs) in
  { n_nets;
    c_blocks;
    c_delays;
    c_inputs;
    c_outputs;
    c_input_index;
    c_consumers = Array.map (fun l -> Array.of_list (List.rev l)) rev_consumers;
    c_fingerprint =
      lazy (render_fingerprint n_nets c_blocks c_delays c_inputs c_outputs) }

let compile g =
  match g.compiled with
  | Some c -> c
  | None ->
      let c = compile_fresh g in
      g.compiled <- Some c;
      c

(* Nets transitively influenced by block [bi]'s outputs: closure over
   the consumer index (a block reading a marked net marks all its output
   nets) and over delay elements (a marked delay input marks the delay's
   output, i.e. influence carries into later instants). The complement
   is the set of nets a fault in [bi] provably cannot touch — the
   containment invariant the supervisor tests check. *)
let affected_nets c bi =
  if bi < 0 || bi >= Array.length c.c_blocks then
    invalid_arg (Printf.sprintf "Graph.affected_nets: no block %d" bi);
  let marked = Array.make c.n_nets false in
  let queue = Queue.create () in
  let mark net =
    if not marked.(net) then begin
      marked.(net) <- true;
      Queue.add net queue
    end
  in
  let _, _, outs = c.c_blocks.(bi) in
  Array.iter mark outs;
  while not (Queue.is_empty queue) do
    let net = Queue.pop queue in
    Array.iter
      (fun ci ->
        let _, _, outs = c.c_blocks.(ci) in
        Array.iter mark outs)
      c.c_consumers.(net);
    Array.iter (fun (din, dout, _) -> if din = net then mark dout) c.c_delays
  done;
  marked

(* Detect a channel cycle through blocks only: DFS on the block-to-block
   reachability induced by channels, cutting edges at delays. *)
let has_causality_cycle g =
  let succ = Hashtbl.create 16 in
  List.iter
    (fun ((src_id, _), (dst_id, _)) ->
      match (node_kind g src_id, node_kind g dst_id) with
      | _, Kdelay _ -> () (* edge into a delay cuts the path *)
      | _, _ ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt succ src_id) in
          Hashtbl.replace succ src_id (dst_id :: existing))
    (channels g);
  let state = Hashtbl.create 16 in
  (* 0 = in progress, 1 = done; explicit DFS frames so deep pipelines
     cannot overflow the OCaml stack *)
  let cyclic = ref false in
  let visit root =
    if not (Hashtbl.mem state root) then begin
      Hashtbl.replace state root 0;
      let frames = Stack.create () in
      Stack.push (root, ref (Option.value ~default:[] (Hashtbl.find_opt succ root))) frames;
      while not (Stack.is_empty frames) do
        let id, rest = Stack.top frames in
        match !rest with
        | [] ->
            Hashtbl.replace state id 1;
            ignore (Stack.pop frames)
        | next :: tl -> (
            rest := tl;
            match Hashtbl.find_opt state next with
            | Some 0 -> cyclic := true
            | Some _ -> ()
            | None ->
                Hashtbl.replace state next 0;
                Stack.push
                  (next, ref (Option.value ~default:[] (Hashtbl.find_opt succ next)))
                  frames)
      done
    end
  in
  List.iter (fun (id, _) -> visit id) (nodes g);
  !cyclic
