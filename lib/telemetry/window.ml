type t = {
  w_ring : float array;
  w_capacity : int;
  mutable w_pushed : int;
  mutable w_ewma : float;
}

(* weight of a new sample in the moving average *)
let ewma_alpha = 0.1

let create ~capacity () =
  if capacity < 1 then invalid_arg "Window.create: capacity must be >= 1";
  { w_ring = Array.make capacity 0.0;
    w_capacity = capacity;
    w_pushed = 0;
    w_ewma = nan }

let capacity t = t.w_capacity

let push t v =
  t.w_ring.(t.w_pushed mod t.w_capacity) <- v;
  t.w_ewma <-
    (if t.w_pushed = 0 then v
     else (ewma_alpha *. v) +. ((1.0 -. ewma_alpha) *. t.w_ewma));
  t.w_pushed <- t.w_pushed + 1

let size t = min t.w_pushed t.w_capacity

let pushed t = t.w_pushed

let last t =
  if t.w_pushed = 0 then nan
  else t.w_ring.((t.w_pushed - 1) mod t.w_capacity)

let fold f init t =
  let n = size t in
  let acc = ref init in
  for k = 0 to n - 1 do
    acc := f !acc t.w_ring.((t.w_pushed - n + k) mod t.w_capacity)
  done;
  !acc

let sum t = fold ( +. ) 0.0 t

let mean t = if size t = 0 then nan else sum t /. float_of_int (size t)

let rate = mean

let min_value t = if size t = 0 then nan else fold Float.min infinity t

let max_value t = if size t = 0 then nan else fold Float.max neg_infinity t

let ewma t = t.w_ewma

let clear t =
  t.w_pushed <- 0;
  t.w_ewma <- nan
