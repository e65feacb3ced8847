type kernel =
  | Opaque
  | Const of Domain.t array
  | Map1 of (Data.t -> Data.t)
  | Map2 of (Data.t -> Data.t -> Data.t)
  | IMap1 of (int -> int) * (Data.t -> Data.t)
  | IMap2 of (int -> int -> int) * (Data.t -> Data.t -> Data.t)
  | Mux
  | Fork
  | Identity

type t = {
  name : string;
  n_in : int;
  n_out : int;
  fn : Domain.t array -> Domain.t array;
  kernel : kernel;
}

let make ?(kernel = Opaque) ~name ~n_in ~n_out fn =
  let checked inputs =
    if Array.length inputs <> n_in then
      invalid_arg
        (Printf.sprintf "block %s: expected %d inputs, got %d" name n_in
           (Array.length inputs));
    let outputs = fn inputs in
    if Array.length outputs <> n_out then
      invalid_arg
        (Printf.sprintf "block %s: produced %d outputs, expected %d" name
           (Array.length outputs) n_out);
    outputs
  in
  { name; n_in; n_out; fn = checked; kernel }

let strict ?kernel ~name ~n_in ~n_out f =
  let fn inputs =
    let all_defined = Array.for_all Domain.is_def inputs in
    if not all_defined then Array.make n_out Domain.Bottom
    else
      let values =
        Array.map
          (function Domain.Def v -> v | Domain.Bottom -> assert false)
          inputs
      in
      Array.map Domain.def (f values)
  in
  make ?kernel ~name ~n_in ~n_out fn

let apply b inputs = b.fn inputs

let monotone_on b lo hi =
  let pointwise_leq a b =
    Array.for_all2 (fun x y -> Domain.leq x y) a b
  in
  (not (pointwise_leq lo hi)) || pointwise_leq (apply b lo) (apply b hi)

let const ~name v =
  make ~kernel:(Const [| Domain.def v |]) ~name ~n_in:0 ~n_out:1 (fun _ ->
      [| Domain.def v |])

let map1 ~name f =
  strict ~kernel:(Map1 f) ~name ~n_in:1 ~n_out:1 (fun vs -> [| f vs.(0) |])

let map2 ~name f =
  strict ~kernel:(Map2 f) ~name ~n_in:2 ~n_out:1 (fun vs ->
      [| f vs.(0) vs.(1) |])

(* Int-specialized maps: [fi] must coincide with [f] on Int operands —
   Fuse's chain compiler runs [fi] over raw ints (no boxing at all) and
   falls back to [f] the moment a non-Int value flows through. *)
let imap1 ~name fi f =
  strict ~kernel:(IMap1 (fi, f)) ~name ~n_in:1 ~n_out:1 (fun vs ->
      [| f vs.(0) |])

let imap2 ~name fi f =
  strict ~kernel:(IMap2 (fi, f)) ~name ~n_in:2 ~n_out:1 (fun vs ->
      [| f vs.(0) vs.(1) |])

let arith name int_op real_op =
  let g a b =
    match (a, b) with
    | Data.Int x, Data.Int y -> Data.Int (int_op x y)
    | Data.Real x, Data.Real y -> Data.Real (real_op x y)
    | Data.Int x, Data.Real y -> Data.Real (real_op (float_of_int x) y)
    | Data.Real x, Data.Int y -> Data.Real (real_op x (float_of_int y))
    | _ -> invalid_arg (Printf.sprintf "block %s: non-numeric operands" name)
  in
  imap2 ~name int_op g

let add = arith "add" ( + ) ( +. )

let sub = arith "sub" ( - ) ( -. )

let mul = arith "mul" ( * ) ( *. )

let gain k =
  imap1
    ~name:(Printf.sprintf "gain%d" k)
    (fun n -> k * n)
    (function
      | Data.Int n -> Data.Int (k * n)
      | Data.Real f -> Data.Real (float_of_int k *. f)
      | v ->
          invalid_arg (Printf.sprintf "gain: non-numeric %s" (Data.to_string v)))

let neg =
  imap1 ~name:"neg"
    (fun n -> -n)
    (function
      | Data.Int n -> Data.Int (-n)
      | Data.Real f -> Data.Real (-.f)
      | v ->
          invalid_arg (Printf.sprintf "neg: non-numeric %s" (Data.to_string v)))

let logical_and =
  map2 ~name:"and" (fun a b ->
      match (a, b) with
      | Data.Bool x, Data.Bool y -> Data.Bool (x && y)
      | _ -> invalid_arg "and: non-boolean operands")

let logical_not =
  map1 ~name:"not" (function
    | Data.Bool b -> Data.Bool (not b)
    | _ -> invalid_arg "not: non-boolean operand")

(* Non-strict: once the select is known, only the chosen branch needs to
   be defined. This is what lets delay-free feedback through the
   unselected branch still converge. *)
let mux =
  make ~kernel:Mux ~name:"mux" ~n_in:3 ~n_out:1 (fun inputs ->
      match inputs.(0) with
      | Domain.Bottom -> [| Domain.Bottom |]
      | Domain.Def (Data.Bool true) -> [| inputs.(1) |]
      | Domain.Def (Data.Bool false) -> [| inputs.(2) |]
      | Domain.Def v ->
          invalid_arg
            (Printf.sprintf "mux: non-boolean select %s" (Data.to_string v)))

let fork n =
  make ~kernel:Fork ~name:(Printf.sprintf "fork%d" n) ~n_in:1 ~n_out:n
    (fun inputs -> Array.make n inputs.(0))

let identity =
  make ~kernel:Identity ~name:"id" ~n_in:1 ~n_out:1 (fun inputs ->
      [| inputs.(0) |])
