type op =
  | Step of int * (Domain.t array -> unit)
  | Generic of int * (Domain.t array -> unit)
  | Iterate of int array * int

type fast =
  | Frun of (Domain.t array -> unit)
  | Fiter of int array * int

type t = {
  f_ops : op array;
  f_fast : fast array;
  f_fast_evals : int;
  f_template : Domain.t array;
  f_constants : (int * Domain.t) list;
  f_reset : int array;
  f_copy_src : int array;
  f_copy_dst : int array;
  f_n_nets : int;
  f_n_blocks : int;
  f_folded : bool array;
  f_n_fused : int;
  f_n_folded : int;
  f_n_inlined : int;
  f_n_cyclic : int;
}

(* Raised (no-trace) by an input getter when the slot or chain value is
   ⊥: the head of the chain skips its store, leaving the output at ⊥ —
   exactly what the strict cells produce on partial inputs. A dedicated
   exception so a kernel that itself raises [Exit] is not swallowed. *)
exception Undefined

(* Raised (no-trace) by the int lane when a non-[Int] value flows
   through: the head re-runs the exact data-level chain. *)
exception Not_int

(* Slot operation for a kernel cell: read input slots, write output
   slots, allocate nothing but the produced value itself. Semantics
   must match the corresponding cell in [Block] exactly — skipping the
   write leaves the slot at ⊥, which is what the strict cells output on
   partial inputs. *)
let step_of_kernel kernel in_nets out_nets =
  match kernel with
  | Block.Opaque -> None
  | Block.Const outs ->
      Some
        (fun nets ->
          for p = 0 to Array.length outs - 1 do
            nets.(out_nets.(p)) <- outs.(p)
          done)
  | Block.Map1 f ->
      let i = in_nets.(0) and o = out_nets.(0) in
      Some
        (fun nets ->
          match nets.(i) with
          | Domain.Bottom -> ()
          | Domain.Def x -> nets.(o) <- Domain.Def (f x))
  | Block.Map2 f ->
      let i0 = in_nets.(0) and i1 = in_nets.(1) and o = out_nets.(0) in
      Some
        (fun nets ->
          match (nets.(i0), nets.(i1)) with
          | Domain.Def x, Domain.Def y -> nets.(o) <- Domain.Def (f x y)
          | _ -> ())
  | Block.IMap1 (fi, f) ->
      let i = in_nets.(0) and o = out_nets.(0) in
      Some
        (fun nets ->
          match nets.(i) with
          | Domain.Bottom -> ()
          | Domain.Def (Data.Int x) -> nets.(o) <- Domain.Def (Data.Int (fi x))
          | Domain.Def x -> nets.(o) <- Domain.Def (f x))
  | Block.IMap2 (fi, f) ->
      let i0 = in_nets.(0) and i1 = in_nets.(1) and o = out_nets.(0) in
      Some
        (fun nets ->
          match (nets.(i0), nets.(i1)) with
          | Domain.Def (Data.Int x), Domain.Def (Data.Int y) ->
              nets.(o) <- Domain.Def (Data.Int (fi x y))
          | Domain.Def x, Domain.Def y -> nets.(o) <- Domain.Def (f x y)
          | _ -> ())
  | Block.Mux ->
      let s = in_nets.(0)
      and a = in_nets.(1)
      and b = in_nets.(2)
      and o = out_nets.(0) in
      Some
        (fun nets ->
          match nets.(s) with
          | Domain.Bottom -> ()
          | Domain.Def (Data.Bool true) -> nets.(o) <- nets.(a)
          | Domain.Def (Data.Bool false) -> nets.(o) <- nets.(b)
          | Domain.Def v ->
              invalid_arg
                (Printf.sprintf "mux: non-boolean select %s" (Data.to_string v)))
  | Block.Fork ->
      let i = in_nets.(0) in
      Some
        (fun nets ->
          let v = nets.(i) in
          for p = 0 to Array.length out_nets - 1 do
            nets.(out_nets.(p)) <- v
          done)
  | Block.Identity ->
      let i = in_nets.(0) and o = out_nets.(0) in
      Some (fun nets -> nets.(o) <- nets.(i))

(* Compile-time evaluation of a pure kernel on constant inputs. [None]
   declines the fold (e.g. the map function traps on these values — the
   block then stays in the plan and traps identically every instant).
   Only kernels are trial-evaluated: an opaque function may close over
   mutable state, so running it at fuse time could be observable. *)
let fold_kernel kernel ~n_out (ins : Domain.t array) =
  match kernel with
  | Block.Opaque -> None
  | Block.Const outs -> Some (Array.copy outs)
  | Block.Map1 f | Block.IMap1 (_, f) -> (
      match ins.(0) with
      | Domain.Bottom -> Some [| Domain.Bottom |]
      | Domain.Def x -> (
          match f x with
          | y -> Some [| Domain.Def y |]
          | exception _ -> None))
  | Block.Map2 f | Block.IMap2 (_, f) -> (
      match (ins.(0), ins.(1)) with
      | Domain.Def x, Domain.Def y -> (
          match f x y with
          | z -> Some [| Domain.Def z |]
          | exception _ -> None)
      | _ -> Some [| Domain.Bottom |])
  | Block.Mux -> (
      match ins.(0) with
      | Domain.Bottom -> Some [| Domain.Bottom |]
      | Domain.Def (Data.Bool true) -> Some [| ins.(1) |]
      | Domain.Def (Data.Bool false) -> Some [| ins.(2) |]
      | Domain.Def _ -> None)
  | Block.Fork -> Some (Array.make n_out ins.(0))
  | Block.Identity -> Some [| ins.(0) |]

(* Whole-block application of an opaque block: inputs from a private
   scratch buffer, outputs stored straight into their slots (single
   producer + topological order make the direct store exact). *)
let apply_whole block in_nets out_nets =
  let scratch = Array.make (Array.length in_nets) Domain.Bottom in
  fun nets ->
    for p = 0 to Array.length in_nets - 1 do
      scratch.(p) <- nets.(in_nets.(p))
    done;
    let out = Block.apply block scratch in
    for p = 0 to Array.length out_nets - 1 do
      nets.(out_nets.(p)) <- out.(p)
    done

(* ---- chain collapsing ---------------------------------------------- *)

(* A value-producing kernel (one output, data in → data out) can be
   inlined into its consumer: the chain computes through OCaml locals
   and the interior net is never written. Mux passes Domain values
   through (⊥ included) and Const always folds, so the collapsible set
   is the strict data kernels; Fork and slot-fed Identity dissolve
   through net aliasing instead. *)
let value_kernel = function
  | Block.Map1 _ | Block.Map2 _ | Block.IMap1 _ | Block.IMap2 _
  | Block.Identity ->
      true
  | Block.Opaque | Block.Const _ | Block.Mux | Block.Fork -> false

(* Argument shape at a (resolved) net: a registered chain, or a plain
   slot whose read gets inlined into the consumer's closure. *)
type darg = Dexpr of (Domain.t array -> Data.t) | Dslot of int
type iarg = Iexpr of (Domain.t array -> int) | Islot of int

let dclose = function
  | Dexpr e -> e
  | Dslot n -> (
      fun nets ->
        match nets.(n) with
        | Domain.Def x -> x
        | Domain.Bottom -> raise_notrace Undefined)

let iclose = function
  | Iexpr e -> e
  | Islot n -> (
      fun nets ->
        match nets.(n) with
        | Domain.Def (Data.Int x) -> x
        | Domain.Def _ -> raise_notrace Not_int
        | Domain.Bottom -> raise_notrace Undefined)

(* Chain body for a strict data kernel, [Undefined]-strict in every
   transitive leaf. With both arguments of a binary map fed by chains
   the left chain runs first; if it is ⊥ the right chain is not
   evaluated at all — same fixed point as block-at-a-time evaluation
   (strict cells ignore the other input then too), but a kernel that
   would have trapped inside the skipped chain does not get to. The
   supervised path never inlines, so contained faults are unaffected. *)
let value_of_kernel ~dlook kernel in_nets =
  match kernel with
  | Block.Map1 f | Block.IMap1 (_, f) -> (
      match dlook in_nets.(0) with
      | Dexpr e -> Some (fun nets -> f (e nets))
      | Dslot n ->
          Some
            (fun nets ->
              match nets.(n) with
              | Domain.Def x -> f x
              | Domain.Bottom -> raise_notrace Undefined))
  | Block.Map2 f | Block.IMap2 (_, f) -> (
      match (dlook in_nets.(0), dlook in_nets.(1)) with
      | Dslot n0, Dslot n1 ->
          Some
            (fun nets ->
              match (nets.(n0), nets.(n1)) with
              | Domain.Def a, Domain.Def b -> f a b
              | _ -> raise_notrace Undefined)
      | Dexpr e0, Dslot n1 ->
          Some
            (fun nets ->
              let a = e0 nets in
              match nets.(n1) with
              | Domain.Def b -> f a b
              | Domain.Bottom -> raise_notrace Undefined)
      | Dslot n0, Dexpr e1 ->
          Some
            (fun nets ->
              match nets.(n0) with
              | Domain.Def a -> f a (e1 nets)
              | Domain.Bottom -> raise_notrace Undefined)
      | Dexpr e0, Dexpr e1 ->
          Some
            (fun nets ->
              let a = e0 nets in
              let b = e1 nets in
              f a b))
  | Block.Identity -> Some (dclose (dlook in_nets.(0)))
  | _ -> None

(* Int-lane chain body: raw machine ints in OCaml locals, no [Data]
   boxing anywhere inside the chain. Only kernels with an int
   specialization (and Identity) participate; a generic data kernel in
   the middle of a chain is reached through an unboxing wrapper, and
   any non-[Int] value anywhere aborts to the data lane via [Not_int]. *)
let ivalue_of_kernel ~ilook kernel in_nets =
  match kernel with
  | Block.IMap1 (fi, _) -> (
      match ilook in_nets.(0) with
      | Iexpr e -> Some (fun nets -> fi (e nets))
      | Islot n ->
          Some
            (fun nets ->
              match nets.(n) with
              | Domain.Def (Data.Int x) -> fi x
              | Domain.Def _ -> raise_notrace Not_int
              | Domain.Bottom -> raise_notrace Undefined))
  | Block.IMap2 (fi, _) -> (
      match (ilook in_nets.(0), ilook in_nets.(1)) with
      | Islot n0, Islot n1 ->
          Some
            (fun nets ->
              match (nets.(n0), nets.(n1)) with
              | Domain.Def (Data.Int a), Domain.Def (Data.Int b) -> fi a b
              | Domain.Def _, Domain.Def _ -> raise_notrace Not_int
              | _ -> raise_notrace Undefined)
      | Iexpr e0, Islot n1 ->
          Some
            (fun nets ->
              let a = e0 nets in
              match nets.(n1) with
              | Domain.Def (Data.Int b) -> fi a b
              | Domain.Def _ -> raise_notrace Not_int
              | Domain.Bottom -> raise_notrace Undefined)
      | Islot n0, Iexpr e1 ->
          Some
            (fun nets ->
              match nets.(n0) with
              | Domain.Def (Data.Int a) -> fi a (e1 nets)
              | Domain.Def _ -> raise_notrace Not_int
              | Domain.Bottom -> raise_notrace Undefined)
      | Iexpr e0, Iexpr e1 ->
          Some
            (fun nets ->
              let a = e0 nets in
              let b = e1 nets in
              fi a b))
  | Block.Identity -> Some (iclose (ilook in_nets.(0)))
  | _ -> None

(* Folded slots are exactly the non-⊥ template entries plus folded ⊥
   outputs; the defined ones are the usable facts. *)
let constants template =
  let acc = ref [] in
  for net = Array.length template - 1 downto 0 do
    match template.(net) with
    | Domain.Bottom -> ()
    | v -> acc := (net, v) :: !acc
  done;
  !acc

let compile ?schedule (c : Graph.compiled) =
  let schedule =
    match schedule with Some s -> s | None -> Schedule.of_compiled c
  in
  let n_blocks = Array.length c.Graph.c_blocks in
  let n_nets = c.Graph.n_nets in
  let template = Array.make n_nets Domain.Bottom in
  (* A net is static when its producer folded; env inputs and delay
     outputs change per instant and are never static. *)
  let static = Array.make n_nets false in
  let folded = Array.make n_blocks false in
  (* Nets the environment reads back after the instant: output ports
     and delay feeds. They block chain collapsing (the chain's head
     must store) but not aliasing — an aliased env net is served by a
     post-pass copyback from its source slot. *)
  let env_read = Array.make n_nets false in
  Array.iter (fun (_, net) -> env_read.(net) <- true) c.Graph.c_outputs;
  Array.iter (fun (din, _, _) -> env_read.(din) <- true) c.Graph.c_delays;
  let cyclic = Array.make n_blocks false in
  List.iter
    (function
      | Schedule.Acyclic _ -> ()
      | Schedule.Cyclic members ->
          Array.iter (fun bi -> cyclic.(bi) <- true) members)
    (Schedule.groups schedule);
  (* Fork (and slot-fed Identity) outputs alias their source slot; the
     chain getters resolve through this, so the copy never happens. *)
  let alias = Array.init n_nets Fun.id in
  let inlined : (Domain.t array -> Data.t) option array =
    Array.make n_nets None
  in
  let inlined_int : (Domain.t array -> int) option array =
    Array.make n_nets None
  in
  let dlook n =
    let n = alias.(n) in
    match inlined.(n) with Some e -> Dexpr e | None -> Dslot n
  in
  let ilook n =
    let n = alias.(n) in
    match inlined_int.(n) with
    | Some e -> Iexpr e
    | None -> (
        match inlined.(n) with
        | Some d ->
            Iexpr
              (fun nets ->
                match d nets with
                | Data.Int x -> x
                | _ -> raise_notrace Not_int)
        | None -> Islot n)
  in
  (* Does some consumer of this net read the slot itself (rather than
     resolve through the alias / chain getters)? Mux, opaque and
     Const-kernel steps and SCC members all evaluate via direct slot
     reads; value kernels and forks resolve. *)
  let slot_consumed o =
    Array.exists
      (fun q ->
        cyclic.(q)
        ||
        let qb, _, _ = c.Graph.c_blocks.(q) in
        not (value_kernel qb.Block.kernel || qb.Block.kernel = Block.Fork))
      c.Graph.c_consumers.(o)
  in
  (* Is net [o]'s one consumer a strict data kernel outside every SCC?
     Then the chain computed into [o] can move into that consumer.
     (A consumer of a non-static net can never fold — folding needs
     all-static inputs — so a registered chain is always picked up.
     A consumer reading [o] on both ports appears once in c_consumers;
     the chain then evaluates twice, sound for the pure kernels.) *)
  let collapsible o =
    (not env_read.(o))
    &&
    match c.Graph.c_consumers.(o) with
    | [| q |] ->
        (not cyclic.(q))
        &&
        let qb, _, _ = c.Graph.c_blocks.(q) in
        value_kernel qb.Block.kernel
    | _ -> false
  in
  let n_fused = ref 0 in
  let n_folded = ref 0 in
  let n_inlined = ref 0 in
  let n_cyclic = ref 0 in
  let fast_evals = ref 0 in
  let rev_ops = ref [] in
  let rev_fast = ref [] in
  let rev_reset = ref [] in
  let rev_copy = ref [] in
  let reset s = rev_reset := s :: !rev_reset in
  List.iter
    (fun group ->
      match group with
      | Schedule.Acyclic bi -> (
          let block, in_nets, out_nets = c.Graph.c_blocks.(bi) in
          let all_static = Array.for_all (fun n -> static.(n)) in_nets in
          let fold =
            if all_static then
              fold_kernel block.Block.kernel
                ~n_out:(Array.length out_nets)
                (Array.map (fun n -> template.(n)) in_nets)
            else None
          in
          match fold with
          | Some outs ->
              folded.(bi) <- true;
              incr n_folded;
              Array.iteri
                (fun p v ->
                  template.(out_nets.(p)) <- v;
                  static.(out_nets.(p)) <- true;
                  reset out_nets.(p))
                outs
          | None -> (
              incr fast_evals;
              let kernel = block.Block.kernel in
              (* block-at-a-time op, for probed runs; its step closure
                 is shared with the fast lane where the lane keeps the
                 block whole *)
              let step =
                match step_of_kernel kernel in_nets out_nets with
                | Some step ->
                    incr n_fused;
                    rev_ops := Step (bi, step) :: !rev_ops;
                    step
                | None ->
                    let step = apply_whole block in_nets out_nets in
                    rev_ops := Generic (bi, step) :: !rev_ops;
                    step
              in
              (* fast lane *)
              let passthrough =
                match kernel with
                | Block.Fork -> true
                | Block.Identity -> (
                    match dlook in_nets.(0) with
                    | Dslot _ -> true
                    | Dexpr _ -> false)
                | _ -> false
              in
              if passthrough then begin
                (* every port is just another read of the source slot *)
                let i =
                  match dlook in_nets.(0) with
                  | Dslot n -> n
                  | Dexpr _ ->
                      (* a fork's source is never a collapsed chain: a
                         chain only registers under a value-kernel
                         consumer, which Fork is not *)
                      assert false
                in
                let residual =
                  Array.of_list
                    (List.filter slot_consumed (Array.to_list out_nets))
                in
                Array.iter
                  (fun o ->
                    alias.(o) <- i;
                    if env_read.(o) && not (slot_consumed o) then
                      rev_copy := (o, i) :: !rev_copy)
                  out_nets;
                if Array.length residual = 0 then incr n_inlined
                else
                  rev_fast :=
                    Frun
                      (fun nets ->
                        let v = nets.(i) in
                        for p = 0 to Array.length residual - 1 do
                          nets.(residual.(p)) <- v
                        done)
                    :: !rev_fast
              end
              else
                let value = value_of_kernel ~dlook kernel in_nets in
                match value with
                | Some dv ->
                    let o = out_nets.(0) in
                    if collapsible o then begin
                      incr n_inlined;
                      inlined.(o) <- Some dv;
                      inlined_int.(o) <- (
                        match ivalue_of_kernel ~ilook kernel in_nets with
                        | Some iv -> Some iv
                        | None -> None)
                    end
                    else begin
                      (* conditional writer: skipped stores must find ⊥ *)
                      reset o;
                      let run =
                        match ivalue_of_kernel ~ilook kernel in_nets with
                        | Some iv ->
                            (* int first; any non-Int value re-runs the
                               exact data chain from scratch (pure
                               kernels, so re-evaluation is
                               unobservable) *)
                            fun nets -> (
                              match iv nets with
                              | x -> nets.(o) <- Domain.Def (Data.Int x)
                              | exception Undefined -> ()
                              | exception Not_int -> (
                                  match dv nets with
                                  | x -> nets.(o) <- Domain.Def x
                                  | exception Undefined -> ()))
                        | None ->
                            fun nets -> (
                              match dv nets with
                              | x -> nets.(o) <- Domain.Def x
                              | exception Undefined -> ())
                      in
                      rev_fast := Frun run :: !rev_fast
                    end
                | None ->
                    (* Mux skips its store on a ⊥ select; Const stores
                       unconditionally; opaque blocks apply whole *)
                    (match kernel with
                    | Block.Mux -> reset out_nets.(0)
                    | _ -> ());
                    rev_fast := Frun step :: !rev_fast))
      | Schedule.Cyclic members ->
          (* Local domain height = nets written inside the SCC; one
             extra round detects stability (same bound as Scheduled). *)
          let scc_nets =
            Array.fold_left
              (fun acc bi ->
                let _, _, outs = c.Graph.c_blocks.(bi) in
                acc + Array.length outs)
              0 members
          in
          Array.iter
            (fun bi ->
              let _, _, outs = c.Graph.c_blocks.(bi) in
              Array.iter reset outs)
            members;
          n_cyclic := !n_cyclic + Array.length members;
          rev_ops := Iterate (members, scc_nets + 2) :: !rev_ops;
          rev_fast := Fiter (members, scc_nets + 2) :: !rev_fast)
    (Schedule.groups schedule);
  (* Inputs may be partially bound (an absent port stays ⊥), so their
     slots reset each instant too. *)
  Array.iter (fun (_, net) -> reset net) c.Graph.c_inputs;
  let copy = Array.of_list (List.rev !rev_copy) in
  { f_ops = Array.of_list (List.rev !rev_ops);
    f_fast = Array.of_list (List.rev !rev_fast);
    f_fast_evals = !fast_evals;
    f_template = template;
    f_constants = constants template;
    f_reset = Array.of_list (List.rev !rev_reset);
    f_copy_src = Array.map snd copy;
    f_copy_dst = Array.map fst copy;
    f_n_nets = n_nets;
    f_n_blocks = n_blocks;
    f_folded = folded;
    f_n_fused = !n_fused;
    f_n_folded = !n_folded;
    f_n_inlined = !n_inlined;
    f_n_cyclic = !n_cyclic }

let constant_nets t = t.f_constants

let describe t =
  Printf.sprintf
    "fused plan: %d block(s) -> %d kernel step(s) (%d inlined into chains), \
     %d generic, %d folded, %d in cyclic fallback"
    t.f_n_blocks t.f_n_fused t.f_n_inlined
    (t.f_n_blocks - t.f_n_fused - t.f_n_folded - t.f_n_cyclic)
    t.f_n_folded t.f_n_cyclic
