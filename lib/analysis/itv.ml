(* The interval lattice of {!Interval}: 32-bit integer intervals with
   the runtime's wrapping arithmetic, and the abstract environments
   (int locals as intervals, array locals as statically known lengths)
   the analysis propagates. Kept apart from the analysis so that
   {!Facts} can hold the converged environments it memoizes. *)

let min32 = -0x8000_0000
let max32 = 0x7fff_ffff

type itv = { lo : int; hi : int }

let top = { lo = min32; hi = max32 }

let is_top i = i.lo = min32 && i.hi = max32

(* Exact when the true range fits in int32; top otherwise (the concrete
   machine wraps, so a clamped interval would be unsound). *)
let norm lo hi = if lo < min32 || hi > max32 then top else { lo; hi }

let const n = norm n n

let join_itv a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let widen_itv old next =
  { lo = (if next.lo < old.lo then min32 else old.lo);
    hi = (if next.hi > old.hi then max32 else old.hi) }

let meet_itv a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let add_itv a b = norm (a.lo + b.lo) (a.hi + b.hi)
let sub_itv a b = norm (a.lo - b.hi) (a.hi - b.lo)
let neg_itv a = norm (-a.hi) (-a.lo)

let mul_itv a b =
  (* Products of int32 bounds can reach 2^62; go through Int64. *)
  let p x y = Int64.mul (Int64.of_int x) (Int64.of_int y) in
  let c1 = p a.lo b.lo and c2 = p a.lo b.hi in
  let c3 = p a.hi b.lo and c4 = p a.hi b.hi in
  let lo = List.fold_left min c1 [ c2; c3; c4 ] in
  let hi = List.fold_left max c1 [ c2; c3; c4 ] in
  if
    Int64.compare lo (Int64.of_int min32) < 0
    || Int64.compare hi (Int64.of_int max32) > 0
  then top
  else { lo = Int64.to_int lo; hi = Int64.to_int hi }

let div_itv a b =
  (* Only when the divisor cannot be zero; truncation towards zero
     matches both OCaml and Java. *)
  if b.lo <= 0 && b.hi >= 0 then top
  else
    let c1 = a.lo / b.lo and c2 = a.lo / b.hi in
    let c3 = a.hi / b.lo and c4 = a.hi / b.hi in
    let lo = List.fold_left min c1 [ c2; c3; c4 ] in
    let hi = List.fold_left max c1 [ c2; c3; c4 ] in
    norm lo hi

let mod_itv a b =
  if b.lo <= 0 && b.hi >= 0 then top
  else
    (* Java remainder takes the dividend's sign; |r| < max |divisor|. *)
    let m = max (abs b.lo) (abs b.hi) - 1 in
    if a.lo >= 0 then { lo = 0; hi = min a.hi m }
    else if a.hi <= 0 then { lo = max a.lo (-m); hi = 0 }
    else { lo = max a.lo (-m); hi = min a.hi m }

let shl_itv a b =
  match b with
  | { lo; hi } when lo = hi && lo >= 0 && lo <= 31 ->
      let s x = Int64.shift_left (Int64.of_int x) lo in
      let l = s a.lo and h = s a.hi in
      if
        Int64.compare l (Int64.of_int min32) < 0
        || Int64.compare h (Int64.of_int max32) > 0
      then top
      else { lo = Int64.to_int l; hi = Int64.to_int h }
  | _ -> top

let shr_itv a b =
  match b with
  | { lo; hi } when lo = hi && lo >= 0 && lo <= 31 ->
      { lo = a.lo asr lo; hi = a.hi asr lo }
  | _ -> top

let band_itv a b =
  (* x & mask with a non-negative constant mask lands in [0, mask]. *)
  if b.lo = b.hi && b.lo >= 0 then { lo = 0; hi = b.lo }
  else if a.lo = a.hi && a.lo >= 0 then { lo = 0; hi = a.lo }
  else top

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

module SMap = Map.Make (String)

type vstate =
  | Vint of itv
  | Varr of int option  (* statically-known array length *)

type env = vstate SMap.t

(* [None] is unreachable (bottom). A variable absent from the map is
   unknown — entry parameters, non-scalar types, or joins of
   incompatible states all stay absent, which reads back as top. *)
type state = env option

let equal_vstate a b =
  match (a, b) with
  | Vint x, Vint y -> x.lo = y.lo && x.hi = y.hi
  | Varr x, Varr y -> x = y
  | Vint _, Varr _ | Varr _, Vint _ -> false

let join_env a b =
  SMap.merge
    (fun _ x y ->
      match (x, y) with
      | Some (Vint i), Some (Vint j) -> Some (Vint (join_itv i j))
      | Some (Varr m), Some (Varr n) -> if m = n then Some (Varr m) else None
      | _ -> None)
    a b

let widen_env old next =
  SMap.merge
    (fun _ x y ->
      match (x, y) with
      | Some (Vint i), Some (Vint j) -> Some (Vint (widen_itv i j))
      | Some (Varr m), Some (Varr n) -> if m = n then Some (Varr m) else None
      | _ -> None)
    old next

module State = struct
  type t = state

  let bottom = None

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> SMap.equal equal_vstate x y
    | None, Some _ | Some _, None -> false

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some x, Some y -> Some (join_env x y)

  let widen a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some x, Some y -> Some (widen_env x y)
end
