(* Order statistics over latency samples. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort compare a;
  a

let median samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile sorted_samples p =
  let n = Array.length sorted_samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted_samples.(min n (rank ~n p) - 1)

type tail = { t_pct : float; t_value : float; t_beyond : int; t_samples : int }

let tail_candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The tail rule: the highest percentile that still has at least ten
   samples strictly beyond its rank, so the reported tail is never one
   or two outliers. [None] when fewer than eleven samples exist. *)
let tail samples =
  let a = sorted samples in
  let n = Array.length a in
  List.find_map
    (fun p ->
      let beyond = n - rank ~n p in
      if n > 0 && beyond >= 10 then
        Some { t_pct = p; t_value = percentile a p; t_beyond = beyond;
               t_samples = n }
      else None)
    tail_candidates
