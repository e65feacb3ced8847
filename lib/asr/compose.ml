let domain_to_component = function
  | Domain.Bottom -> Data.Absent
  | Domain.Def v -> v

let component_to_domain = function
  | Data.Absent -> Domain.Bottom
  | v -> Domain.Def v

(* Shared machinery: run the inner fixpoint of [compiled] as the body of
   a single block application. State is the tuple of delay values. The
   Worklist plan is prepared once per abstraction, as {!Simulate} does,
   and reused across applications. *)
let make_abstract_block ?instants ~name compiled =
  let in_names = Array.map fst compiled.Graph.c_inputs in
  let out_names = Array.map fst compiled.Graph.c_outputs in
  let n_delays = Array.length compiled.Graph.c_delays in
  let has_state = n_delays > 0 in
  let n_in = Array.length in_names + if has_state then 1 else 0 in
  let n_out = Array.length out_names + if has_state then 1 else 0 in
  let plan = Fixpoint.prepare Fixpoint.Worklist compiled in
  let applications = ref 0 in
  let fn inputs =
    incr applications;
    let env_inputs =
      Array.to_list (Array.mapi (fun i label -> (label, inputs.(i))) in_names)
    in
    let delay_values =
      if not has_state then [||]
      else
        match inputs.(Array.length in_names) with
        | Domain.Bottom -> Array.make n_delays Domain.Bottom
        | Domain.Def (Data.Tuple parts) when List.length parts = n_delays ->
            Array.of_list (List.map component_to_domain parts)
        | Domain.Def v ->
            invalid_arg
              (Printf.sprintf "abstract block %s: bad state %s" name
                 (Data.to_string v))
    in
    let result =
      Fixpoint.eval plan ~inputs:env_inputs ~delay_values ()
    in
    (match instants with
    | Some parent ->
        let app =
          Instant.add_child parent
            (Printf.sprintf "%s: application %d" name !applications)
        in
        Instant.add_leaves app ~prefix:"sweep" result.Fixpoint.iterations
    | None -> ());
    let outs =
      Array.map
        (fun (_, net) -> result.Fixpoint.nets.(net))
        compiled.Graph.c_outputs
    in
    if has_state then begin
      let next = Fixpoint.delay_next compiled result in
      let state =
        Domain.Def
          (Data.Tuple (Array.to_list (Array.map domain_to_component next)))
      in
      Array.append outs [| state |]
    end
    else outs
  in
  (Block.make ~name ~n_in ~n_out fn, in_names, out_names, has_state)

let to_block ?instants g =
  if Graph.delay_count g > 0 then
    invalid_arg
      (Printf.sprintf "Compose.to_block: graph %s contains delay elements"
         (Graph.name g));
  let compiled = Graph.compile g in
  let block, _, _, _ =
    make_abstract_block ?instants ~name:(Graph.name g ^ "^") compiled
  in
  block

let abstract g =
  let compiled = Graph.compile g in
  let block, in_names, out_names, has_state =
    make_abstract_block ~name:(Graph.name g ^ "^") compiled
  in
  let out_graph = Graph.create (Graph.name g ^ "_abstract") in
  let b = Graph.add_block out_graph block in
  Array.iteri
    (fun i label ->
      let input = Graph.add_input out_graph label in
      Graph.connect out_graph ~src:(Graph.out_port input 0) ~dst:(Graph.in_port b i))
    in_names;
  Array.iteri
    (fun j label ->
      let output = Graph.add_output out_graph label in
      Graph.connect out_graph ~src:(Graph.out_port b j) ~dst:(Graph.in_port output 0))
    out_names;
  if has_state then begin
    let init =
      Domain.Def
        (Data.Tuple
           (Array.to_list
              (Array.map
                 (fun (_, _, init) -> domain_to_component init)
                 compiled.Graph.c_delays)))
    in
    let d = Graph.add_delay out_graph ~init in
    Graph.connect out_graph
      ~src:(Graph.out_port b (Array.length out_names))
      ~dst:(Graph.in_port d 0);
    Graph.connect out_graph ~src:(Graph.out_port d 0)
      ~dst:(Graph.in_port b (Array.length in_names))
  end;
  out_graph
