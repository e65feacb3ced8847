(* Generic monotone-framework worklist solver.

   Functorized over an abstract lattice with widening. The solver takes
   the transfer function as a plain value (rather than baking it into
   the functor) so clients can capture recording state in a closure —
   the interval analysis uses this to collect loop-entry environments
   and index-safety facts in a final pass over the converged states.

   Widening points are the targets of back edges, identified by reverse
   postorder: an edge u -> v is a back edge when rpo(v) <= rpo(u).
   Widening is applied only after [widen_delay] ordinary joins have
   failed to stabilize the block, which keeps small constant-bound loops
   exact while still guaranteeing termination. *)

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t  (* [widen old next]: extrapolate the growth *)
end

(* The solver's set-up for one CFG, computed once however often the
   graph is solved: reverse postorder from the entry and the widening
   points. *)
type plan = {
  cfg : Cfg.t;
  rpo : int array;  (* block -> its position; max_int if unreachable *)
  by_rpo : int array;  (* position -> block *)
  widen_point : bool array;
}

let plan (cfg : Cfg.t) =
  let n = Array.length cfg.Cfg.blocks in
  let rpo = Array.make n max_int in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs cfg.Cfg.blocks.(i).Cfg.succs;
      order := i :: !order
    end
  in
  dfs cfg.Cfg.entry;
  List.iteri (fun k i -> rpo.(i) <- k) !order;
  let widen_point = Array.make n false in
  Array.iter
    (fun b ->
      List.iter
        (fun s -> if rpo.(s) <= rpo.(b.Cfg.id) then widen_point.(s) <- true)
        b.Cfg.succs)
    cfg.Cfg.blocks;
  { cfg; rpo; by_rpo = Array.of_list !order; widen_point }

module Worklist = Set.Make (Int)

module Make (L : LATTICE) = struct
  (* Solve to a fixpoint; returns the in-state of every block.
     Blocks unreachable from the entry keep [L.bottom]. *)
  let solve ?(widen_delay = 2) ~transfer plan ~init =
    let cfg = plan.cfg and rpo = plan.rpo in
    let n = Array.length cfg.Cfg.blocks in
    let in_state = Array.make n L.bottom in
    (* Worklist of reverse-postorder positions (loop heads before
       bodies). *)
    let queue = ref Worklist.empty in
    let queued = Array.make n false in
    let push i =
      if rpo.(i) < max_int && not queued.(i) then begin
        queued.(i) <- true;
        queue := Worklist.add rpo.(i) !queue
      end
    in
    let joins = Array.make n 0 in
    in_state.(cfg.Cfg.entry) <- init;
    push cfg.Cfg.entry;
    while not (Worklist.is_empty !queue) do
      let top = Worklist.min_elt !queue in
      queue := Worklist.remove top !queue;
      let i = plan.by_rpo.(top) in
      queued.(i) <- false;
      let out =
        List.fold_left
          (fun st c -> transfer c st)
          in_state.(i) cfg.Cfg.blocks.(i).Cfg.cmds
      in
      List.iter
        (fun s ->
          let joined = L.join in_state.(s) out in
          let next =
            if plan.widen_point.(s) && joins.(s) >= widen_delay then
              L.widen in_state.(s) joined
            else joined
          in
          if not (L.equal next in_state.(s)) then begin
            in_state.(s) <- next;
            joins.(s) <- joins.(s) + 1;
            push s
          end)
        cfg.Cfg.blocks.(i).Cfg.succs
    done;
    in_state
end
