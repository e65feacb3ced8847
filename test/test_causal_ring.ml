(* Differential tests of the flat causal ring against the record-ring
   reference model in [Causal_oracle]: random recording scripts drive
   both, and every query and the streamed section must agree exactly
   with the reference's answers and its state. Small capacities force
   wraparound; wide reads and writes force the arenas to grow their
   stride mid-run. Scripts over integers exercise the layout; scripts
   over mixed [Domain.t] values (⊥, ints up to [min_int] and [max_int],
   NaN and -0.0 reals, strings, arrays, tuples) run the ring with the
   int view installed, so ints ride unboxed and the rest as values. *)

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

  val record_eval :
    'v t ->
    block:int ->
    reads:int array ->
    writes:int array ->
    keep:('v -> bool) ->
    'v array ->
    unit
end

(* The reference has no one-call evaluation: it is the open evaluation
   it stands for. *)
module Oracle = struct
  include O

  let record_eval t ~block ~reads ~writes ~keep nets =
    O.eval_begin t ~block ~reads;
    Array.iter
      (fun net -> if keep nets.(net) then O.eval_write t ~net nets.(net))
      writes;
    O.eval_commit t
end

let n_nets = 8

type 'v action =
  | Bind of C.kind * int * int * 'v  (* kind, net, src, value *)
  | Eval of int * int list * (int * 'v) list * string
      (* block, reads, writes, tag *)
  | Stored of int * int list * (int * 'v) list
      (* an untagged application recorded in one call, after it stored
         its outputs in the nets: block, reads, outputs *)

(* One script: the ring capacity, then instants of actions. *)
type 'v script = int * 'v action list list

module Run (L : LOG) = struct
  let act ~keep t = function
    | Bind (kind, net, src, v) ->
        if src >= 0 then L.record_binding t ~kind ~net ~src v
        else L.record_binding t ~kind ~net v
    | Eval (block, reads, writes, tag) ->
        L.eval_begin t ~block ~reads:(Array.of_list reads);
        List.iter (fun (net, v) -> L.eval_write t ~net v) writes;
        if tag <> "" then L.set_tag t tag;
        L.eval_commit t
    | Stored (block, reads, outs) ->
        (* a block has one output per net *)
        let outs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) outs in
        let nets =
          match outs with [] -> [||] | (_, v) :: _ -> Array.make n_nets v
        in
        List.iter (fun (net, v) -> nets.(net) <- v) outs;
        L.record_eval t ~block ~reads:(Array.of_list reads)
          ~writes:(Array.of_list (List.map fst outs))
          ~keep nets

  let instant ~keep t actions =
    L.begin_instant t;
    List.iter (act ~keep t) actions;
    L.end_instant t

  let run ?(init = ignore) ~keep (capacity, instants) =
    let t = L.create ~capacity ~n_nets () in
    init t;
    List.iter (instant ~keep t) instants;
    t
end

module R = Run (C)
module RO = Run (Oracle)

(* integer scripts: a stored application keeps the values not divisible
   by four *)
let keep v = v mod 4 <> 0

let gen_action value =
  QCheck.Gen.(
    let net = int_bound (n_nets - 1) in
    frequency
      [ ( 2,
          map
            (fun (k, n, s, v) ->
              let kind = [| C.Input; C.Delay; C.Folded |].(k) in
              Bind (kind, n, (if kind = C.Delay then s else -1), v))
            (quad (int_bound 2) net (int_range (-1) (n_nets - 1)) value) );
        ( 5,
          map
            (fun (b, reads, writes, tag) ->
              Eval (b, reads, writes, [| ""; ""; "contained:held" |].(tag)))
            (quad (int_bound 20) (list_size (int_bound 7) net)
               (list_size (int_bound 5) (pair net value))
               (int_bound 2)) );
        ( 3,
          map
            (fun (b, reads, outs) -> Stored (b, reads, outs))
            (triple (int_bound 20) (list_size (int_bound 7) net)
               (list_size (int_bound 5) (pair net value))) ) ])

let gen_instants value =
  QCheck.Gen.(
    list_size (int_range 1 6) (list_size (int_bound 10) (gen_action value)))

let gen_script value = QCheck.Gen.(pair (int_range 1 12) (gen_instants value))

let arb_script = QCheck.make (gen_script QCheck.Gen.small_int)

let render v = J.Int v

(* The ring's section, streamed from its slots. *)
let section_with ~write t =
  let buf = Buffer.create 1024 in
  C.write_json ~render:write buf t;
  Buffer.contents buf

let section t = section_with ~write:(fun buf v -> J.write_int buf v) t

(* The reference's continuable state, encoded event by event through
   [Causal.event_json]: the bytes the section must hold. *)
let oracle_section_with ~render o =
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

let oracle_section o = oracle_section_with ~render o

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

(* ---- mixed values under the int view ---- *)

module D = Asr.Domain
module Data = Asr.Data

let gen_value =
  QCheck.Gen.(
    let int =
      oneof
        [ small_signed_int; oneofl [ min_int; max_int; min_int + 1; 0; -1 ] ]
    in
    let real =
      oneof
        [ float;
          oneofl
            [ nan; -.nan; -0.0; 0.0; infinity; neg_infinity;
              Int64.float_of_bits 0x7ff8_0000_0000_0123L ] ]
    in
    let data =
      fix
        (fun self depth ->
          frequency
            ([ (5, map (fun n -> Data.Int n) int);
               (1, map (fun b -> Data.Bool b) bool);
               (2, map (fun f -> Data.Real f) real);
               ( 1,
                 map
                   (fun s -> Data.Str s)
                   (string_size ~gen:printable (int_bound 4)) );
               ( 1,
                 map (fun a -> Data.Int_array a) (array_size (int_bound 3) int)
               );
               (1, pure Data.Absent) ]
            @
            if depth = 0 then []
            else
              [ ( 1,
                  map
                    (fun l -> Data.Tuple l)
                    (list_size (int_bound 3) (self (depth - 1))) ) ]))
        2
    in
    frequency [ (1, pure D.Bottom); (6, map D.def data) ])

let arb_values = QCheck.make (gen_script gen_value)

let int_view t = C.use_int_lane t ~to_int:D.int_lane ~of_int:D.int

let write_value = Asr.Codec.write_value

let value_section t = section_with ~write:write_value t

let oracle_value_section o = oracle_section_with ~render:Asr.Codec.value_json o

(* NaN is not [=] to itself; [compare] is total. Values that are not
   ints are the recorded ones, and the sections compare bits. *)
let agree_values t o ~instants =
  compare (ring_queries t ~instants) (oracle_queries o ~instants) = 0
  && value_section t = oracle_value_section o
  && C.data_loss t = O.data_loss o

let decode s =
  C.of_json ~unrender:Asr.Codec.value_of_json (J.parse s)

let suite =
  [ qcase ~count:300 "flat ring agrees with the record ring on every query"
      arb_script (fun ((_, instants) as script) ->
        let t = R.run ~keep script and o = RO.run ~keep script in
        agree t o ~instants:(List.length instants));
    qcase ~count:200 "of_state continues recording like the reference"
      (QCheck.pair arb_script
         (QCheck.make
            QCheck.Gen.(
              list_size (int_range 1 3)
                (list_size (int_bound 8) (gen_action small_int)))))
      (fun (((_, instants) as script), more) ->
        (* the checkpoint's path: snapshot, save, load, resume *)
        let saved = C.snapshot (R.run ~keep script) in
        let t = C.copy (C.of_json ~unrender (J.parse (section saved))) in
        let o = O.of_state (O.export_state (RO.run ~keep script)) in
        List.iter (R.instant ~keep t) more;
        List.iter (RO.instant ~keep o) more;
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
        let t = R.run ~keep script and o = RO.run ~keep script in
        Alcotest.(check bool) "agree" true (agree t o ~instants:3);
        Alcotest.(check int) "pushed" 4 (C.pushed t));
    case "a quiet evaluation does not clobber the oldest event" (fun () ->
        let script =
          (2, [ [ Eval (0, [], [ (1, 1) ], ""); Eval (1, [], [ (2, 2) ], "");
                  Eval (2, [ 1; 2 ], [], "") ] ])
        in
        let t = R.run ~keep script and o = RO.run ~keep script in
        Alcotest.(check bool) "agree" true (agree t o ~instants:1);
        Alcotest.(check int) "both retained" 2 (List.length (C.events t)));
    case "the widest event sets the stride" (fun () ->
        (* a 3-read event takes 6 read ints per slot, not double the
           initial 4; stride is not visible, so the section of a ring
           grown wide, then fed narrow events, must still agree *)
        let script =
          ( 3,
            [ [ Eval (0, [ 0; 1; 2 ], [ (3, 1) ], "") ];
              [ Stored (1, [ 0; 1; 2; 3; 4 ], [ (5, 2); (6, 3) ]) ];
              [ Stored (2, [ 5 ], [ (7, 5) ]);
                Eval (3, [ 7 ], [ (0, 6) ], "") ] ] )
        in
        let t = R.run ~keep script and o = RO.run ~keep script in
        Alcotest.(check bool) "agree" true (agree t o ~instants:3));
    qcase ~count:300 "int lane: mixed values agree with the record ring"
      arb_values (fun ((_, instants) as script) ->
        let keep = D.is_def in
        let t = R.run ~init:int_view ~keep script
        and o = RO.run ~keep script in
        let instants = List.length instants in
        agree_values t o ~instants
        (* a snapshot answers as the ring does *)
        && compare
             (ring_queries (C.snapshot t) ~instants)
             (ring_queries t ~instants)
           = 0);
    qcase ~count:200 "int lane: saved, decoded and copied, keeps recording"
      (QCheck.pair arb_values (QCheck.make (gen_instants gen_value)))
      (fun (((_, instants) as script), more) ->
        let keep = D.is_def in
        let saved = C.snapshot (R.run ~init:int_view ~keep script) in
        let bytes = value_section saved in
        (* decoded without the view, every value is boxed; installing
           it moves the ints into their lane; neither moves a byte *)
        let boxed = decode bytes in
        let laned = decode bytes in
        int_view laned;
        let o = O.of_state (O.export_state (RO.run ~keep script)) in
        let n = List.length instants in
        let ok =
          value_section boxed = bytes
          && value_section laned = bytes
          && compare
               (ring_queries boxed ~instants:n)
               (ring_queries laned ~instants:n)
             = 0
        in
        let t = C.copy laned in
        List.iter (R.instant ~keep t) more;
        List.iter (RO.instant ~keep o) more;
        ok && agree_values t o ~instants:(n + List.length more));
    qcase ~count:200 "int lane: installed mid-run, earlier values move in"
      (QCheck.pair arb_values QCheck.small_nat)
      (fun ((capacity, instants), k) ->
        let keep = D.is_def in
        let k = k mod (List.length instants + 1) in
        let t = C.create ~capacity ~n_nets () in
        List.iteri
          (fun i inst ->
            if i = k then int_view t;
            R.instant ~keep t inst)
          instants;
        let o = RO.run ~keep (capacity, instants) in
        agree_values t o ~instants:(List.length instants)) ]
