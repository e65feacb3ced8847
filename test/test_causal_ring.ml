(* Differential tests of the flat causal ring against the record-ring
   reference model in [Causal_oracle]: random recording scripts drive
   both, and every query and the streamed section must agree exactly
   with the reference's answers and its state. Small capacities force
   wraparound; wide reads and writes force the arenas to grow their
   stride mid-run. *)

open Util
module C = Telemetry.Causal
module O = Causal_oracle
module J = Telemetry.Json

module type LOG = sig
  type 'v t

  val create : ?capacity:int -> n_nets:int -> unit -> 'v t
  val begin_instant : 'v t -> unit
  val end_instant : 'v t -> unit
  val record_binding : 'v t -> kind:C.kind -> net:int -> ?src:int -> 'v -> unit
  val eval_begin : 'v t -> block:int -> reads:int array -> unit
  val eval_write : 'v t -> net:int -> 'v -> unit
  val set_tag : 'v t -> string -> unit
  val eval_commit : 'v t -> unit
end

let n_nets = 8

type action =
  | Bind of C.kind * int * int * int  (* kind, net, src, value *)
  | Eval of int * int list * (int * int) list * string
      (* block, reads, writes, tag *)

(* One script: the ring capacity, then instants of actions. *)
type script = int * action list list

module Run (L : LOG) = struct
  let act t = function
    | Bind (kind, net, src, v) ->
        if src >= 0 then L.record_binding t ~kind ~net ~src v
        else L.record_binding t ~kind ~net v
    | Eval (block, reads, writes, tag) ->
        L.eval_begin t ~block ~reads:(Array.of_list reads);
        List.iter (fun (net, v) -> L.eval_write t ~net v) writes;
        if tag <> "" then L.set_tag t tag;
        L.eval_commit t

  let instant t actions =
    L.begin_instant t;
    List.iter (act t) actions;
    L.end_instant t

  let run (capacity, instants) =
    let t = L.create ~capacity ~n_nets () in
    List.iter (instant t) instants;
    t
end

module R = Run (C)
module RO = Run (O)

let gen_action =
  QCheck.Gen.(
    let net = int_bound (n_nets - 1) in
    frequency
      [ ( 2,
          map
            (fun (k, n, s, v) ->
              let kind = [| C.Input; C.Delay; C.Folded |].(k) in
              Bind (kind, n, (if kind = C.Delay then s else -1), v))
            (quad (int_bound 2) net (int_range (-1) (n_nets - 1)) small_int) );
        ( 5,
          map
            (fun (b, reads, writes, tag) ->
              Eval (b, reads, writes, [| ""; ""; "contained:held" |].(tag)))
            (quad (int_bound 20) (list_size (int_bound 7) net)
               (list_size (int_bound 5) (pair net small_int))
               (int_bound 2)) ) ])

let gen_script : script QCheck.Gen.t =
  QCheck.Gen.(
    pair (int_range 1 12)
      (list_size (int_range 1 6) (list_size (int_bound 10) gen_action)))

let arb_script = QCheck.make gen_script

let render v = J.Int v

(* The ring's section, streamed from its slots. *)
let section t =
  let buf = Buffer.create 1024 in
  C.write_json ~render:(fun buf v -> J.write_int buf v) buf t;
  Buffer.contents buf

(* The reference's continuable state, encoded event by event through
   [Causal.event_json]: the bytes the section must hold. *)
let oracle_section o =
  let st = O.export_state o in
  J.to_string
    (J.Obj
       [ ("capacity", J.Int st.O.st_capacity);
         ("pushed", J.Int st.O.st_pushed);
         ("instant", J.Int st.O.st_instant);
         ("truncated", J.Int st.O.st_truncated);
         ( "writers",
           J.List (Array.to_list (Array.map (fun u -> J.Int u) st.O.st_writers))
         );
         ("events", J.List (List.map (C.event_json ~render) st.O.st_events))
       ])

let unrender = function J.Int v -> v | _ -> invalid_arg "not an int"

(* Every query the module answers, in one comparable value. Slices bump
   the truncated-slice counter, so both sides run them in the same
   order. *)
let queries ~instants ~events ~find ~writer ~slice ~pushed =
  let uids = List.init (pushed + 4) (fun u -> u - 2) in
  let nets = List.init n_nets Fun.id in
  let insts = List.init (instants + 2) (fun i -> i - 1) in
  ( events None,
    List.init (instants + 1) (fun i -> events (Some i)),
    List.map find uids,
    List.concat_map
      (fun net -> List.map (fun instant -> writer ~net ~instant) insts)
      nets,
    List.concat_map
      (fun net -> List.map (fun instant -> slice ~net ~instant) insts)
      nets )

let ring_queries t ~instants =
  queries ~instants
    ~events:(fun instant -> C.events ?instant t)
    ~find:(C.find t) ~writer:(C.writer t) ~slice:(C.slice t)
    ~pushed:(C.pushed t)

let oracle_queries o ~instants =
  queries ~instants
    ~events:(fun instant -> O.events ?instant o)
    ~find:(O.find o) ~writer:(O.writer o) ~slice:(O.slice o)
    ~pushed:(O.pushed o)

let agree t o ~instants =
  ring_queries t ~instants = oracle_queries o ~instants
  && section t = oracle_section o
  && C.data_loss t = O.data_loss o

let suite =
  [ qcase ~count:300 "flat ring agrees with the record ring on every query"
      arb_script (fun ((_, instants) as script) ->
        let t = R.run script and o = RO.run script in
        agree t o ~instants:(List.length instants));
    qcase ~count:200 "of_state continues recording like the reference"
      (QCheck.pair arb_script
         (QCheck.make
            QCheck.Gen.(
              list_size (int_range 1 3) (list_size (int_bound 8) gen_action))))
      (fun (((_, instants) as script), more) ->
        (* the checkpoint's path: snapshot, save, load, resume *)
        let saved = C.snapshot (R.run script) in
        let t = C.copy (C.of_json ~unrender (J.parse (section saved))) in
        let o = O.of_state (O.export_state (RO.run script)) in
        List.iter (R.instant t) more;
        List.iter (RO.instant o) more;
        agree t o ~instants:(List.length instants + List.length more));
    case "stride growth keeps earlier events intact" (fun () ->
        let script =
          ( 4,
            [ [ Eval (0, [ 1 ], [ (2, 7) ], "") ];
              [ Eval
                  ( 1,
                    [ 0; 1; 2; 3; 4; 5; 6 ],
                    [ (0, 1); (1, 2); (3, 3); (4, 4) ],
                    "" );
                Bind (C.Delay, 5, 2, 9) ];
              [ Eval (2, [], [], "contained:absent") ] ] )
        in
        let t = R.run script and o = RO.run script in
        Alcotest.(check bool) "agree" true (agree t o ~instants:3);
        Alcotest.(check int) "pushed" 4 (C.pushed t));
    case "a quiet evaluation does not clobber the oldest event" (fun () ->
        let script =
          (2, [ [ Eval (0, [], [ (1, 1) ], ""); Eval (1, [], [ (2, 2) ], "");
                  Eval (2, [ 1; 2 ], [], "") ] ])
        in
        let t = R.run script and o = RO.run script in
        Alcotest.(check bool) "agree" true (agree t o ~instants:1);
        Alcotest.(check int) "both retained" 2 (List.length (C.events t))) ]
